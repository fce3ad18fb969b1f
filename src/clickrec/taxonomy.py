"""Category assignment, path similarity, grading and variant clustering.

A local TSV site index stands in for a live directory API: a site matches a
query when every whitespace chunk of the query occurs as a substring of the
site's title + description, and each match votes for the site's category.
"""

from __future__ import annotations

from typing import NamedTuple

from .features import _Bag, _bag, _cosine
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


class SiteIndex(tuple):
    """The ``(text, category)`` sites of a taxonomy, with one bitmask per chunk.

    ``mask(c)`` has bit i set when chunk ``c`` occurs in site i's text, by the
    same ``c in text`` test as a scan.  It is computed once per distinct chunk
    and memoised: the sites are a tuple, so the memo is a pure cache of a
    function of values that never change (an inverted file over substrings).
    """

    def __new__(cls, sites):
        self = super().__new__(cls, sites)
        self._masks: dict[str, int] = {}
        return self

    def mask(self, chunk: str) -> int:
        m = self._masks.get(chunk)
        if m is None:
            m = 0
            for i, (text, _) in enumerate(self):
                if chunk in text:
                    m |= 1 << i
            self._masks[chunk] = m
        return m


def load_taxonomy(lines) -> SiteIndex:
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
    return SiteIndex(sites)


def assign_category(q: str, index: SiteIndex) -> CategoryAssignment:
    """AND-retrieval over title+description, then vote for site categories.

    A site matches when every whitespace chunk of ``q`` occurs in its text,
    so a query without chunks matches every site; votes fill in site order.
    Ties on the vote count go to the lexicographically smallest path string;
    zero matches leave the category absent.
    """
    matched = (1 << len(index)) - 1
    for c in q.split():
        matched &= index.mask(c)
    votes: dict[CategoryPath, int] = {}
    while matched:
        low = matched & -matched
        category = index[low.bit_length() - 1][1]
        votes[category] = votes.get(category, 0) + 1
        matched ^= low
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


def cluster_trivial_variants(stats: ClickStats) -> dict[str, int]:
    """Single-pass clustering of queries by their clicked-URL click vectors.

    Queries are processed in descending cnt(q) order (ties by query string);
    each joins the first existing centroid with cosine >= VARIANT_COSINE,
    which is replaced by the frequency-weighted mean of the two, or founds a
    new cluster.  The cosine is the feature bag cosine, so each vector
    carries its norm; ``stats`` is never written to.

    Only centroids that share a URL with the query are scored, in ascending
    id, found through a URL -> centroid-id index.  Every click count is
    positive, so any other centroid has cosine 0, below the threshold.
    """
    order = sorted(stats.cnt_q, key=lambda q: (-stats.cnt_q[q], q))
    centroids: list[tuple[_Bag, float]] = []  # (mean click bag, summed cnt(q))
    labels: dict[str, int] = {}
    postings: dict[str, set[int]] = {}  # url -> ids of centroids that hold it
    for q in order:
        vec = _bag(stats.clicks[q])
        w_new = float(stats.cnt_q[q])
        sharing = sorted(set().union(*(postings.get(u, ()) for u in vec.counts)))
        joined = next(
            (cid for cid in sharing if _cosine(vec, centroids[cid][0]) >= VARIANT_COSINE), None
        )
        if joined is None:
            joined = len(centroids)
            centroids.append((vec, w_new))
        else:
            cen, w_old = centroids[joined]
            # Existing keys keep their places and new ones follow in sorted
            # order; the norm sums in key order, so the floats depend on it.
            mean = dict(cen.counts)
            for k in sorted(mean.keys() | vec.counts.keys()):
                mean[k] = (w_old * cen.counts.get(k, 0.0) + w_new * vec.counts.get(k, 0.0)) / (
                    w_old + w_new
                )
            centroids[joined] = (_bag(mean), w_old + w_new)
        for u in vec.counts:
            postings.setdefault(u, set()).add(joined)
        labels[q] = joined
    return labels
