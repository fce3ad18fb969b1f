"""Category assignment, path similarity, grading and variant clustering.

A local TSV site index stands in for a live directory API: a site matches a
query when every whitespace chunk of the query occurs as a substring of the
site's title + description, and each match votes for the site's category.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .logs import ClickStats

CategoryPath = tuple[str, ...]

# Cosine at or above which a query joins a trivial-variant cluster.
VARIANT_COSINE = 0.9

GRADE_SCORES = {"perfect": 10.0, "excellent": 7.0, "good": 3.0, "fair": 0.5, "poor": 0.0}


def parse_path(text: str) -> CategoryPath:
    parts = tuple(p.strip() for p in text.split("/"))
    if not parts or any(not p for p in parts):
        raise ValueError(f"bad category path: {text!r}")
    return parts


def path_str(path: CategoryPath) -> str:
    return "/".join(path)


class CategoryAssignment(NamedTuple):
    query: str
    category: CategoryPath | None
    votes: dict[CategoryPath, int]


def load_taxonomy(lines) -> list[tuple[str, CategoryPath]]:
    """Read `url<TAB>title<TAB>description<TAB>category_path` records.

    Each site becomes ``(f"{title} {description}", category)``; the URL is
    not kept.  A malformed record raises ValueError("<line>: <reason>").
    """
    sites = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        parts = line.rstrip("\n").split("\t")
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 4 fields, got {len(parts)}")
            _, title, desc, cat = parts
            sites.append((f"{title} {desc}", parse_path(cat)))
        except ValueError as exc:
            raise ValueError(f"{lineno}: {exc}") from None
    return sites


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


def dump_assignments(assignments: list[CategoryAssignment]) -> list[str]:
    lines = []
    for a in assignments:
        cat = path_str(a.category) if a.category else "-"
        n = a.votes.get(a.category, 0) if a.category else 0
        lines.append(f"{a.query}\t{cat}\t{n}")
    return lines


def sim_prefix(d1: CategoryPath, d2: CategoryPath) -> float:
    """Longest-common-prefix length over the max path depth."""
    if not d1 or not d2:
        raise ValueError("category paths must be non-empty")
    common = 0
    for a, b in zip(d1, d2):
        if a != b:
            break
        common += 1
    return common / max(len(d1), len(d2))


def sim_substring(d1: CategoryPath, d2: CategoryPath) -> float:
    """Common component count (multiset intersection) over the max depth."""
    if not d1 or not d2:
        raise ValueError("category paths must be non-empty")
    common = sum(min(d1.count(c), d2.count(c)) for c in set(d1))
    return common / max(len(d1), len(d2))


def query_similarity(
    q1: str, q2: str, assignments: dict[str, CategoryAssignment]
) -> float | None:
    """Max sim_substring over all voted category pairs; None if either
    query has no voted category."""
    a1 = assignments.get(q1)
    a2 = assignments.get(q2)
    if a1 is None or a2 is None or not a1.votes or not a2.votes:
        return None
    return max(sim_substring(c1, c2) for c1 in a1.votes for c2 in a2.votes)


def grade(sim: float) -> tuple[str, float]:
    """Map a similarity to the five-grade label and its score.

    Intervals are lower-exclusive / upper-inclusive so the labels partition
    [0, 1]: poor {0}, fair (0,0.25], good (0.25,0.5], excellent (0.5,0.75],
    perfect (0.75,1].
    """
    if not 0.0 <= sim <= 1.0:
        raise ValueError(f"similarity out of range: {sim}")
    if sim > 0.75:
        label = "perfect"
    elif sim > 0.5:
        label = "excellent"
    elif sim > 0.25:
        label = "good"
    elif sim > 0.0:
        label = "fair"
    else:
        label = "poor"
    return label, GRADE_SCORES[label]


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
