"""Reference category assignment and variant clustering for equivalence tests.

These are the ``assign_category`` and ``cluster_trivial_variants`` that
``clickrec.taxonomy`` used before its exact indexes.  Assignment tests every
query chunk against every site's text, and clustering scores every query
against every centroid with its own dict cosine, which recomputes both
norms on each call.  They are slow, but they are the specification the
indexed versions must match: the same categories, the same votes in the same
insertion order, and the same cluster labels.
"""

from __future__ import annotations

import math

from clickrec.logs import ClickStats
from clickrec.taxonomy import VARIANT_COSINE, CategoryAssignment, CategoryPath, path_str


def assign_category(q: str, index: list[tuple[str, CategoryPath]]) -> CategoryAssignment:
    """AND-retrieval over title+description, then vote for site categories.

    Ties on the vote count go to the lexicographically smallest path string;
    zero matches leave the category absent.
    """
    chunks = q.split()
    votes: dict[CategoryPath, int] = {}
    for text, category in index:
        if all(c in text for c in chunks):
            votes[category] = votes.get(category, 0) + 1
    if not votes:
        return CategoryAssignment(q, None, {})
    winner = min(votes, key=lambda p: (-votes[p], path_str(p)))
    return CategoryAssignment(q, winner, votes)


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine of two click vectors; each holds a positive count, so no norm is 0."""
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    return dot / (na * nb)


def cluster_trivial_variants(stats: ClickStats) -> dict[str, int]:
    """Single-pass clustering of queries by their clicked-URL click vectors.

    Queries are processed in descending cnt(q) order (ties by query string);
    each joins the first existing centroid with cosine >= VARIANT_COSINE,
    updating it by a frequency-weighted mean, or founds a new cluster.
    """
    order = sorted(stats.cnt_q, key=lambda q: (-stats.cnt_q[q], q))
    centroids: list[dict[str, float]] = []
    weights: list[float] = []
    labels: dict[str, int] = {}
    for q in order:
        vec = {u: float(c) for u, c in stats.clicks[q].items()}
        joined = None
        for cid, cen in enumerate(centroids):
            if _cosine(vec, cen) >= VARIANT_COSINE:
                joined = cid
                break
        if joined is None:
            centroids.append(vec)
            weights.append(float(stats.cnt_q[q]))
            labels[q] = len(centroids) - 1
        else:
            w_old = weights[joined]
            w_new = float(stats.cnt_q[q])
            cen = centroids[joined]
            for k in sorted(set(cen) | set(vec)):
                cen[k] = (w_old * cen.get(k, 0.0) + w_new * vec.get(k, 0.0)) / (
                    w_old + w_new
                )
            weights[joined] = w_old + w_new
            labels[q] = joined
    return labels
