"""The indexed category assignment and variant clustering against the scans.

``taxonomy_reference`` holds the all-sites and all-centroids loops the
indexes replaced.  Assignment must give the same category and the same votes
in the same insertion order, for every query of random site worlds: words
that are substrings of other words, repeated chunks, empty queries, empty
indexes and more than 64 sites.  Clustering must give every query the same
label on random click worlds built so that near-identical click vectors
merge; the synthetic corpora never merge, so only these worlds exercise that
path.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import taxonomy_reference as ref
from clickrec import taxonomy
from clickrec.logs import ClickRecord, build_click_stats

ALPHABET = "abé"  # short words over few letters are often substrings of others


@st.composite
def site_worlds(draw):
    words = draw(st.lists(st.text(ALPHABET, min_size=1, max_size=4), min_size=1, max_size=8))
    n_sites = draw(st.one_of(st.sampled_from([0, 64, 65, 130]), st.integers(0, 150)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = [
        f"http://s{i}\t{' '.join(rng.choices(words, k=rng.randint(0, 3)))}"
        f"\t{' '.join(rng.choices(words, k=rng.randint(0, 3)))}"
        f"\t{'/'.join(rng.choices('ABC', k=rng.randint(1, 3)))}"
        for i in range(n_sites)
    ]
    chunks = words + [w[1:] for w in words if len(w) > 1] + ["zz"]
    queries = ["", "  ", f"{words[0]} {words[0]}"]
    queries += [" ".join(rng.choices(chunks, k=rng.randint(1, 4))) for _ in range(30)]
    return lines, queries


def _same(got, want):
    assert got == want
    assert list(got.votes.items()) == list(want.votes.items())


@settings(max_examples=200, deadline=None)
@given(site_worlds())
def test_assign_matches_reference(world):
    lines, queries = world
    index = taxonomy.load_taxonomy(lines)
    for q in queries:
        want = ref.assign_category(q, list(index))
        _same(taxonomy.assign_category(q, index), want)


def stats_from_vectors(vectors: dict[str, dict[str, int]]):
    """Click stats in which query q clicks url u vectors[q][u] times."""
    records = []
    for q, vec in vectors.items():
        for u, c in vec.items():
            records += [ClickRecord(len(records), f"u{k}", q, u, 1) for k in range(c)]
    return build_click_stats(records)


def variant_stats(rng: random.Random, n_queries: int, n_urls: int, n_bases: int):
    """Click stats whose queries perturb a few base click vectors, so many merge."""
    urls = [f"http://s{i}" for i in range(n_urls)]
    bases = [
        {u: rng.randint(1, 9) for u in rng.sample(urls, rng.randint(1, min(4, n_urls)))}
        for _ in range(n_bases)
    ]
    vectors = {}
    for j in range(n_queries):
        vec = {u: max(1, c + rng.randint(-1, 1)) for u, c in rng.choice(bases).items()}
        if rng.random() < 0.3:
            vec[rng.choice(urls)] = rng.randint(1, 2)
        vectors[f"q{j}"] = vec
    return stats_from_vectors(vectors)


def _merges(labels):
    return len(labels) - len(set(labels.values()))


@st.composite
def click_worlds(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.integers(1, 40)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    return variant_stats(rng, *sizes)


@settings(max_examples=300, deadline=None)
@given(click_worlds())
def test_cluster_matches_reference(stats):
    assert taxonomy.cluster_trivial_variants(stats) == ref.cluster_trivial_variants(stats)


def test_click_worlds_merge():
    merges = [
        _merges(ref.cluster_trivial_variants(variant_stats(random.Random(seed), 30, 10, 4)))
        for seed in range(50)
    ]
    assert sum(m > 0 for m in merges) >= 45, merges


def test_clustering_writes_nothing_into_the_stats():
    # A founder's centroid starts from that query's own click counts, so a
    # merge that wrote into its centroid would change the stats.
    for seed in range(20):
        stats = variant_stats(random.Random(seed), 30, 10, 4)
        before = copy.deepcopy(stats.clicks)
        assert _merges(taxonomy.cluster_trivial_variants(stats)) > 0
        assert stats.clicks == before


def test_cluster_scores_only_centroids_that_share_a_url(monkeypatch):
    stats = variant_stats(random.Random(5), 80, 60, 20)
    want = ref.cluster_trivial_variants(stats)
    assert _merges(want) > 0
    # The reference scores every centroid up to the one the query joins.
    full_scan, n_centroids = 0, 0
    for q in sorted(stats.cnt_q, key=lambda q: (-stats.cnt_q[q], q)):
        if want[q] == n_centroids:
            full_scan += n_centroids
            n_centroids += 1
        else:
            full_scan += want[q] + 1

    cosine = taxonomy._cosine
    scored = []

    def spy(a, b):
        scored.append(bool(a.counts.keys() & b.counts.keys()))
        return cosine(a, b)

    monkeypatch.setattr(taxonomy, "_cosine", spy)
    assert taxonomy.cluster_trivial_variants(stats) == want
    assert all(scored)
    assert 0 < len(scored) < full_scan, (len(scored), full_scan)


def test_first_sharing_centroid_wins_over_a_later_one():
    # "e" is above the threshold with centroids 1 and 8.  A set of {1, 8}
    # iterates 8 first, so the candidates must be walked in ascending id.
    vectors = {"a0": {"f0": 20}, "b1": {"x": 10, "y": 5}}
    vectors |= {f"c{i}": {f"f{i}": 15} for i in range(2, 8)}
    vectors |= {"d8": {"x": 5, "y": 10}, "e": {"x": 5, "y": 5}}
    stats = stats_from_vectors(vectors)
    labels = taxonomy.cluster_trivial_variants(stats)
    assert labels == ref.cluster_trivial_variants(stats)
    assert (labels["b1"], labels["d8"], labels["e"]) == (1, 8, 1)


def test_query_joins_through_a_url_only_joiners_brought():
    # The founder clicks only "a"; joiners shift the centroid towards "b"
    # until a query that clicks only "b" joins, so the URLs a joiner adds
    # must enter the index.
    b_clicks = [0, 3, 4, 4, 5, 5, 5] + [6] * 5 + [7] * 7 + [8] * 7 + [9] * 7 + [10]
    vectors = {f"q{i:02d}": {"a": 10 - b, "b": b} for i, b in enumerate(b_clicks)}
    vectors = {q: {u: c for u, c in vec.items() if c} for q, vec in vectors.items()}
    stats = stats_from_vectors(vectors)
    labels = taxonomy.cluster_trivial_variants(stats)
    assert labels == ref.cluster_trivial_variants(stats)
    assert set(labels.values()) == {0}
