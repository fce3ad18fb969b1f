import math
import random
from collections import Counter

import pytest

from clickrec.logs import ClickRecord, build_click_stats
from clickrec.taxonomy import (
    SiteIndex,
    assign_category,
    cluster_trivial_variants,
    dump_assignments,
    grade,
    load_taxonomy,
    parse_path,
    path_str,
    query_similarity,
    sim_prefix,
    sim_substring,
)

SPAIN = parse_path("Regional/Countries/Spain")
BARCELONA = parse_path(
    "Regional/Countries/Spain/Autonomous Communities/Catalonia/Cities/Barcelona"
)


def _site(url, title, description, category):
    """One index entry, read by load_taxonomy from its TSV record."""
    (site,) = load_taxonomy([f"{url}\t{title}\t{description}\t{path_str(category)}"])
    return site


def random_path(rng, vocab=("a", "b", "c", "d", "e", "f"), max_depth=6):
    depth = rng.randint(1, max_depth)
    return tuple(rng.choice(vocab) for _ in range(depth))


class TestSimPrefix:
    def test_spain_barcelona_is_three_sevenths(self):
        assert sim_prefix(SPAIN, BARCELONA) == 3 / 7

    def test_identical_paths(self):
        assert sim_prefix(SPAIN, SPAIN) == 1.0

    def test_disjoint_first_component(self):
        assert sim_prefix(("a", "b"), ("c", "b")) == 0.0

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            sim_prefix((), SPAIN)


class TestSimSubstring:
    def test_shared_subparts(self):
        d1 = parse_path("Maps/By region/Countries/Spain")
        d2 = parse_path("Recreation/Travel/By region/Countries/Spain")
        assert sim_substring(d1, d2) == 0.6

    def test_identical(self):
        assert sim_substring(BARCELONA, BARCELONA) == 1.0

    def test_disjoint(self):
        assert sim_substring(("a", "b"), ("c", "d")) == 0.0

    def test_duplicates_matched_to_min_multiplicity(self):
        assert sim_substring(("x", "x", "y"), ("x", "z", "w")) == 1 / 3

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            sim_substring(SPAIN, ())

    def test_symmetric_bounded_and_dominates_prefix(self):
        rng = random.Random(23)
        for _ in range(2000):
            d1, d2 = random_path(rng), random_path(rng)
            ss = sim_substring(d1, d2)
            sp = sim_prefix(d1, d2)
            assert 0.0 <= sp <= ss <= 1.0
            assert ss == sim_substring(d2, d1)
            assert sp == sim_prefix(d2, d1)

    def test_matches_counter_intersection(self):
        rng = random.Random(29)
        for _ in range(2000):
            d1, d2 = random_path(rng, vocab="abc", max_depth=8), random_path(rng, vocab="abc", max_depth=8)
            common = sum((Counter(d1) & Counter(d2)).values())
            assert sim_substring(d1, d2) == common / max(len(d1), len(d2))

    def test_equals_one_iff_same_multiset(self):
        assert sim_substring(("a", "b"), ("b", "a")) == 1.0
        assert sim_substring(("a", "b"), ("a", "a")) < 1.0


class TestAssignCategory:
    INDEX = SiteIndex([
        _site("http://s1", "Spain travel", "visit spain", SPAIN),
        _site("http://s2", "Barcelona guide", "cities of spain", BARCELONA),
    ])

    def test_single_voter(self):
        a = assign_category("spain", SiteIndex([self.INDEX[0]]))
        assert a.category == SPAIN
        assert a.votes == {SPAIN: 1}

    def test_and_semantics_all_chunks_required(self):
        a = assign_category("spain cities", self.INDEX)
        assert a.category == BARCELONA

    def test_no_match_absent(self):
        a = assign_category("curry", self.INDEX)
        assert a.category is None and a.votes == {}

    def test_vote_tie_breaks_lexicographically(self):
        sites = SiteIndex([
            _site("http://1", "w x", "", ("B", "x")),
            _site("http://2", "w y", "", ("A", "y")),
        ])
        a = assign_category("w", sites)
        assert a.category == ("A", "y")

    def test_title_and_description_do_not_run_together(self):
        site = _site("http://1", "w", "x", ("A",))
        assert assign_category("wx", SiteIndex([site])).category is None
        assert assign_category("w x", SiteIndex([site])).category == ("A",)

    def test_uniform_duplication_keeps_winner(self):
        doubled = SiteIndex([s for s in self.INDEX for _ in range(2)])
        a1 = assign_category("spain", self.INDEX)
        a2 = assign_category("spain", doubled)
        assert a1.category == a2.category
        assert a2.votes[a2.category] == 2 * a1.votes[a1.category]

    def test_taxonomy_round_trip_and_dump(self):
        lines = ["http://s1\tSpain travel\tvisit spain\tRegional/Countries/Spain"]
        (site,) = load_taxonomy(lines)
        assert site == ("Spain travel visit spain", SPAIN)
        out = dump_assignments([assign_category("spain", SiteIndex([site]))])
        assert out == ["spain\tRegional/Countries/Spain\t1"]


class TestQuerySimilarity:
    def test_shared_top_category(self):
        index = SiteIndex([_site("http://1", "spain info", "", SPAIN)])
        assignments = {
            "spain": assign_category("spain", index),
            "info": assign_category("info", index),
        }
        assert query_similarity("spain", "info", assignments) == 1.0

    def test_single_pair(self):
        a = {
            "q1": assign_category("x", SiteIndex([_site("u", "x", "", ("A", "B"))])),
            "q2": assign_category("y", SiteIndex([_site("u", "y", "", ("A", "C"))])),
        }
        assert query_similarity("q1", "q2", a) == 0.5

    def test_uncategorized_absent(self):
        a = {"q1": assign_category("zzz", SiteIndex([]))}
        assert query_similarity("q1", "q2", a) is None

    def test_maximizes_over_all_voted_pairs(self):
        sites1 = SiteIndex([
            _site("u1", "q one", "", ("A", "B")),
            _site("u2", "q one", "", ("A", "B")),
            _site("u3", "q one", "", ("C", "D")),
        ])
        sites2 = SiteIndex([_site("u4", "q two", "", ("C", "D"))])
        a = {
            "q one": assign_category("q one", sites1),
            "q two": assign_category("q two", sites2),
        }
        # winner of q one is (A,B) but the voted (C,D) gives the max
        assert a["q one"].category == ("A", "B")
        assert query_similarity("q one", "q two", a) == 1.0


class TestGrade:
    @pytest.mark.parametrize(
        "sim,label,score",
        [
            (0.8, "perfect", 10.0),
            (0.6, "excellent", 7.0),
            (0.5, "good", 3.0),
            (0.3, "good", 3.0),
            (0.1, "fair", 0.5),
            (0.0, "poor", 0.0),
            (0.75, "excellent", 7.0),
            (0.25, "fair", 0.5),
            (1.0, "perfect", 10.0),
        ],
    )
    def test_boundaries(self, sim, label, score):
        assert grade(sim) == (label, score)

    def test_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                grade(bad)

    def test_monotone_and_score_set(self):
        sims = [i / 1000 for i in range(1001)]
        scores = [grade(s)[1] for s in sims]
        assert scores == sorted(scores)
        assert set(scores) == {0.0, 0.5, 3.0, 7.0, 10.0}


def _stats_from_vectors(vectors):
    """vectors: query -> {url: click count}."""
    recs = []
    t = 0
    for q, vec in vectors.items():
        for u, c in vec.items():
            for i in range(c):
                t += 1
                recs.append(ClickRecord(t, f"u{i}", q, u, 1))
    return build_click_stats(recs)


class TestClusterTrivialVariants:
    def test_identical_vectors_merge(self):
        stats = _stats_from_vectors({"a": {"u1": 3, "u2": 1}, "b": {"u1": 3, "u2": 1}})
        labels = cluster_trivial_variants(stats)
        assert labels["a"] == labels["b"]

    def test_disjoint_vectors_split(self):
        stats = _stats_from_vectors({"a": {"u1": 4}, "b": {"u2": 4}})
        labels = cluster_trivial_variants(stats)
        assert labels["a"] != labels["b"]

    def test_near_identical_merge_at_threshold(self):
        stats = _stats_from_vectors({"a": {"u1": 9, "u2": 1}, "b": {"u1": 8, "u2": 2}})
        # cosine of (9,1) and (8,2) ~ 0.9944
        cos = (9 * 8 + 1 * 2) / (math.hypot(9, 1) * math.hypot(8, 2))
        assert cos > 0.9
        labels = cluster_trivial_variants(stats)
        assert labels["a"] == labels["b"]

    def test_partition(self, small_world):
        _, _, stats, _ = small_world
        labels = cluster_trivial_variants(stats)
        assert set(labels) == set(stats.cnt_q)
        assert all(isinstance(v, int) for v in labels.values())
