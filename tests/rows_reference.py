"""Reference row selection for equivalence tests.

This is the ``select_rows`` that ``clickrec.pipeline`` used before the rows
were held in one insertion-ordered dict.  It keeps the chosen rows twice, as
a list of keys and a set of taken pairs, and asks whether a query has a
voted category once per test.  It is the specification the new
``select_rows`` must match: the same keys in the same order, and the same
error type and message.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from clickrec.candidates import CandidatePair
from clickrec.logs import ClickStats
from clickrec.pipeline import RowKey
from clickrec.taxonomy import CategoryAssignment


def select_rows(
    pairs: list[CandidatePair],
    stats: ClickStats,
    assignments: dict[str, CategoryAssignment],
    clusters: dict[str, int],
    neg_ratio: float,
    seed: int,
) -> list[RowKey]:
    """The (q1, q2, strengths) key of each dataset row, in row order.

    Candidate pairs come first, grouped as {(q1, q2): {kind: strength}} in
    sorted order, then random negatives with empty strengths.  A pair is
    dropped when either query lacks a voted category or when q2 is a trivial
    variant of q1.  Negatives are drawn uniformly from categorized queries,
    excluding self pairs, existing pairs and variant mates.  Raises
    ValueError when neg_ratio x the candidate rows exceeds the free pairs
    left to draw.
    """
    if not (math.isfinite(neg_ratio) and neg_ratio >= 0):
        raise ValueError("neg_ratio must be a finite number >= 0")

    def categorized(q: str) -> bool:
        a = assignments.get(q)
        return a is not None and bool(a.votes)

    keys: list[tuple[str, str, dict[str, float]]] = []
    taken: set[tuple[str, str]] = set()

    def add_row(q1: str, q2: str, strengths: dict[str, float]) -> None:
        """Add the (q1, q2) row unless a filter drops it."""
        if q1 == q2 or (q1, q2) in taken or not (categorized(q1) and categorized(q2)):
            return
        if clusters.get(q1) is not None and clusters.get(q1) == clusters.get(q2):
            return
        keys.append((q1, q2, strengths))
        taken.add((q1, q2))

    grouped: dict[tuple[str, str], dict[str, float]] = {}
    for p in pairs:
        grouped.setdefault((p.q1, p.q2), {})[p.kind] = p.strength
    for (q1, q2), strengths in sorted(grouped.items()):
        add_row(q1, q2, strengths)
    n_candidates = len(keys)

    pool = sorted(q for q in stats.cnt_q if categorized(q))
    wanted = neg_ratio * n_candidates
    # The ordered pairs add_row accepts: distinct pool queries that are
    # neither a candidate row nor variant mates.  No candidate row is a
    # mate, so no pair is subtracted twice.
    in_pool = set(pool)
    free = len(pool) * (len(pool) - 1)
    free -= sum(q1 in in_pool and q2 in in_pool for q1, q2 in taken)
    sizes = Counter(clusters[q] for q in pool if clusters.get(q) is not None)
    free -= sum(c * (c - 1) for c in sizes.values())
    if wanted > free:
        raise ValueError(
            f"could not draw {neg_ratio:g} x {n_candidates} negative pairs "
            f"from {free} free pairs; too few categorized queries"
        )
    n_neg = math.ceil(wanted)
    rng = random.Random(seed)
    while len(keys) < n_candidates + n_neg:
        add_row(rng.choice(pool), rng.choice(pool), {})
    return keys
