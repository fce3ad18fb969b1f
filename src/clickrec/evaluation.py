"""Ranking-quality metrics: DCG, NDCG5, AP, MAP, interpolated P-R curves,
and a paired Wilcoxon signed-rank test.

A ranking is the list of its items' grade scores in ranked order; an item
is relevant when its grade is at least RELEVANT_MIN_SCORE.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate

RELEVANT_MIN_SCORE = 7.0  # "excellent" or better counts as relevant


def dcg_at(grades: list[float], R: int) -> float:
    """g_1 + sum_{r=2..R} g_r / log2(r); empty rankings score 0."""
    if R < 1:
        raise ValueError("cutoff must be >= 1")
    total = 0.0
    for r, g in enumerate(grades[:R], 1):
        total += g if r == 1 else g / math.log2(r)
    return total


def ndcg5(grades: list[float]) -> float:
    """DCG_5 over the ideal (grade-sorted) DCG_5; all-zero grades score 0."""
    denom = dcg_at(sorted(grades, reverse=True), 5)
    if denom == 0.0:
        return 0.0
    return dcg_at(grades, 5) / denom


def average_precision(grades: list[float]) -> float:
    """Mean of precision at each relevant position over the full list."""
    hits = 0
    total = 0.0
    for j, g in enumerate(grades, 1):
        if g >= RELEVANT_MIN_SCORE:
            hits += 1
            total += hits / j
    if hits == 0:
        return 0.0
    return total / hits


def mean_average_precision(rankings: list[list[float]]) -> float:
    if not rankings:
        raise ValueError("empty ranking list")
    return sum(average_precision(r) for r in rankings) / len(rankings)


def precision_recall_curve(rankings: list[list[float]]) -> list[tuple[float, float]]:
    """Average interpolated precision at the 11 recall levels 0, 0.1, ..., 1.

    Interpolated precision at recall r is the max precision at any achieved
    recall >= r.  Queries without any relevant item are skipped.
    """
    levels = [k / 10 for k in range(11)]
    rows = []
    for grades in rankings:
        rels = [g >= RELEVANT_MIN_SCORE for g in grades]
        n_rel = sum(rels)
        if n_rel == 0:
            continue
        # (recall, precision) at each prefix
        points = [(hits / n_rel, hits / j) for j, hits in enumerate(accumulate(rels), 1)]
        rows.append([max((p for rec, p in points if rec >= lv), default=0.0) for lv in levels])
    if not rows:
        return [(lv, 0.0) for lv in levels]
    return [(lv, sum(col) / len(rows)) for lv, col in zip(levels, zip(*rows))]


def _rank_abs(diffs: list[float]) -> list[float]:
    """Average ranks of |d| (ties share the mean of their positions)."""
    order = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * len(diffs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def wilcoxon_signed_rank(a: list[float], b: list[float]) -> tuple[float, float]:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped; ties get average ranks.  Exact p via the
    signed-rank sum distribution for n <= 25, otherwise a normal
    approximation with tie and continuity corrections.  Returns
    (min(W+, W-), p).
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n < 6:
        raise ValueError(
            f"need at least 6 nonzero differences for the signed-rank test, got {n}"
        )
    ranks = _rank_abs(diffs)
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    total = sum(ranks)
    w_minus = total - w_plus
    stat = min(w_plus, w_minus)

    if n <= 25:
        # Exact: distribute each rank's sign; ranks are multiples of 0.5.
        scaled = [round(r * 2) for r in ranks]
        top = sum(scaled)
        dist = [1] + [0] * top
        for r in scaled:
            for s in range(top, r - 1, -1):
                dist[s] += dist[s - r]
        w2 = round(w_plus * 2)
        lo = min(w2, top - w2)
        hi = max(w2, top - w2)
        count = sum(dist[: lo + 1]) + sum(dist[hi:])
        p = min(1.0, count / 2**n)
    else:
        mu = n * (n + 1) / 4
        # Tie correction: equal |d| share one average rank, distinct |d| never do.
        tie_term = sum(t**3 - t for t in Counter(ranks).values()) / 48
        sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24 - tie_term)
        # W+ and mu are multiples of 0.5, so the clamp acts only at W+ == mu.
        z = max(abs(w_plus - mu) - 0.5, 0.0) / sigma
        p = math.erfc(z / math.sqrt(2))
    return stat, p
