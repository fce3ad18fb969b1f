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
from collections.abc import Iterable
from typing import NamedTuple

from .candidates import CO_CLICK, CO_SESSION, CO_TOPIC, SessionStats, ctq, freq_topic
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
_INT_COLUMNS = [i for i, typ in enumerate(_TYPES) if typ is int]
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


def levenshtein(a: str | bytes, b: str | bytes) -> int:
    """Unit-cost edit distance over two str (code points) or two bytes.

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


class _Bag(NamedTuple):
    counts: dict  # unit -> positive count: an int, or a float mean in a variant centroid
    norm: float


def _bag(counts: dict) -> _Bag:
    return _Bag(counts, math.sqrt(sum(c * c for c in counts.values())))


def _cosine(a: _Bag, b: _Bag) -> float:
    """Cosine of two bags; the dot product sums in ``a``'s key order."""
    if not a.counts or not b.counts:
        return 0.0
    # Equal bags are exactly 1.0; dot / (norm * norm) can round below it.
    if a.counts == b.counts:
        return 1.0
    bc = b.counts
    dot = sum(c * bc[k] for k, c in a.counts.items() if k in bc)
    return dot / (a.norm * b.norm)


class _Query(NamedTuple):
    """What build_features needs of one query, whichever side it is on."""

    cnt: int
    freq_topic: int  # cnt plus the counts of the ctq expansions
    len: int
    clen: int
    ent: float  # entropy (bits) of its URL clicks, 0.0 for a query without clicks
    next_ent: float  # entropy (bits) of its immediate-successor counts
    successors: dict  # its SessionStats.successors counts, shared: the LLR table's k11 row
    successor_sum: int  # the LLR table's first row sum, with the query as q1
    predecessor_sum: int  # the LLR table's first column sum, with the query as q2
    chunks: _Bag  # whitespace-separated chunks
    bigrams: _Bag  # character bigrams with the whitespace removed
    utf8: bytes
    isascii: bool


def _describe(q: str, stats: ClickStats, st: SessionStats, lex: frozenset[str]) -> _Query:
    succ = st.successors.get(q, {})
    chunks = q.split()
    compact = "".join(chunks)
    return _Query(
        cnt=stats.cnt_q[q],
        freq_topic=freq_topic(q, ctq(q, lex, stats), stats),
        len=len(q),
        clen=len(chunks),
        ent=_entropy(stats.clicks[q].values()),
        next_ent=_entropy([succ[k] for k in sorted(succ)]),
        successors=succ,
        successor_sum=sum(succ.values()),
        predecessor_sum=st.successor_totals.get(q, 0),
        # Plain dicts: Counter's == is a Python-level loop.
        chunks=_bag(dict(Counter(chunks))),
        bigrams=_bag(dict(Counter(compact[i : i + 2] for i in range(len(compact) - 1)))),
        utf8=q.encode("utf-8"),
        isascii=q.isascii(),
    )


class FeatureContext:
    """Per-query feature inputs: ``queries`` describes every query of the
    click counts when the context is built, and is only read after that.

    One context serves every pair built over the same count tables, so
    build_features does only the work that depends on both queries.
    """

    def __init__(self, stats: ClickStats, st: SessionStats, lex: frozenset[str]):
        self.queries = {q: _describe(q, stats, st, lex) for q in stats.cnt_q}
        self.total_pairs = st.total_pairs


def build_features(
    q1: str,
    q2: str,
    ctx: FeatureContext,
    strengths: dict[str, float],
    sim: float | None = None,
) -> FeatureVector:
    """Assemble the full feature vector for a (q1, q2) pair from the two
    queries' records in ctx; an unknown q1 or q2 raises KeyError.  strengths
    maps a candidate kind to the pair's strength in that relation, as
    pipeline.candidate_rows gives it; a kind it lacks has strength 0.  The
    other features are always populated.
    """
    a, b = ctx.queries[q1], ctx.queries[q2]

    mb_leven = levenshtein(q1, q2)
    # An ASCII string's UTF-8 bytes are its code points.
    leven = mb_leven if a.isascii and b.isascii else levenshtein(a.utf8, b.utf8)
    # LLR: Dunning G-squared of q2 right after q1 over all session-adjacent
    # ordered pairs (rows: the predecessor is q1; columns: the successor is q2).
    n = ctx.total_pairs
    f_llr = _g2(a.successors.get(q2, 0), a.successor_sum, b.predecessor_sum, n) if n else 0.0

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


_ROW = "%s\t%s\t%s\t" + "\t".join(["%.12g"] * _N_FEATURES) + "\t"


def feature_matrix_lines(rows: Iterable[tuple[str, str, str, FeatureVector]]) -> list[str]:
    """TSV dump: header, then matrix_row_lines(rows)."""
    return ["\t".join(_COLUMNS), *matrix_row_lines(rows)]


def matrix_row_lines(rows: Iterable[tuple[str, str, str, FeatureVector]]) -> list[str]:
    """One feature matrix line per row: q1/q2/kind keys, then numeric columns."""
    lines = []
    for q1, q2, kind, fv in rows:
        sim = "-" if fv.sim is None else "%.12g" % fv.sim
        lines.append(_ROW % (q1, q2, kind, *fv.values()) + sim)
    return lines


def parse_feature_matrix(lines) -> list[tuple[str, str, str, FeatureVector]]:
    """Inverse of feature_matrix_lines.

    A malformed matrix raises ValueError("<line>: <reason>"), counting
    lines from 1; every value must be a finite number, and an integer in an
    int column.
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
        for i in _INT_COLUMNS:
            if not nums[i].is_integer():
                raise ValueError(
                    f"{lineno}: {FEATURE_NAMES[i]} is not an integer: {parts[3 + i]!r}"
                )
        fv = FeatureVector(*[typ(v) for typ, v in zip(_TYPES, nums)], sim)
        rows.append((parts[0], parts[1], parts[2], fv))
    return rows
