"""Seeded synthetic click-log and taxonomy generator.

Builds a topic-structured world: topics grouped into sibling families under
sections, facet expansions of each topic, per-topic URL pools with click
preferences, and user sessions mixing drill-downs, parallel moves and noise.
The planted relations are recoverable by the candidate extractors, and the
taxonomy reproduces the intended semantic similarities:

  topic vs own expansion     -> same category path      (sim 1.0, perfect)
  topic vs sibling topic     -> shares section + group  (sim 2/3, excellent)
  topic vs same-section      -> shares section only     (sim 1/3, good)
  topic vs other section     -> nothing shared          (sim 0, poor)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .logs import SESSION_TIMEOUT_S

FACETS = ["recipe", "price", "review", "map", "news", "guide", "rental"]
FACETS_PER_TOPIC = 3  # facet expansions generated per topic
URLS_PER_TOPIC = 6

SIBLINGS_PER_GROUP = 4
GROUPS_PER_SECTION = 3


@dataclass
class SynthConfig:
    n_topics: int = 60
    n_users: int = 80
    n_events: int = 30000
    seed: int = 42

    def __post_init__(self):
        for name in ("n_topics", "n_users", "n_events"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _topic_name(i: int) -> str:
    return f"t{i:03d}"


def _topic_path(i: int) -> str:
    group = i // SIBLINGS_PER_GROUP
    section = group // GROUPS_PER_SECTION
    return f"sec{section}/group{group:02d}/{_topic_name(i)}"


def _siblings(i: int, n_topics: int) -> list[int]:
    group = i // SIBLINGS_PER_GROUP
    return [
        j
        for j in range(group * SIBLINGS_PER_GROUP, (group + 1) * SIBLINGS_PER_GROUP)
        if j != i and j < n_topics
    ]


def synth_logs(cfg: SynthConfig) -> tuple[list[str], list[str]]:
    r"""Generate (click log lines, taxonomy lines), deterministic in the seed.

    Every integer draw is ``below(n)``: ``getrandbits(n.bit_length())``,
    drawn again until it is below n.  That is the loop CPython 3.10-3.13's
    ``randrange(n)``, ``randint(a, b)`` (a + below(b - a + 1)) and
    ``choice(seq)`` (seq[below(len(seq))]) end in, so the corpus is the one
    they drew, draw for draw.  Python documents only ``random()`` as
    reproducible across versions; the corpus depends on ``getrandbits``,
    ``random()`` and this loop, not on ``randrange``'s internals.
    ``tests/synth_reference.py`` is the generator written with those calls.

    A click line is ``f"{ts}\t{user}{tail}"``: user ids are formatted once,
    and each ``"\t{query}\t{url}\t{rank}"`` tail once per call.
    """
    rng = random.Random(cfg.seed)
    getrandbits, rand = rng.getrandbits, rng.random

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    topics = [_topic_name(i) for i in range(cfg.n_topics)]
    # Facet subset per topic, rotated so every facet word ends enough queries.
    topic_facets = [
        [FACETS[(i + k) % len(FACETS)] for k in range(FACETS_PER_TOPIC)]
        for i in range(cfg.n_topics)
    ]
    portal = "http://portal.example.com/"
    # Per topic: pool URL j at rank j + 1, the group's hub at ranks 2-6, the
    # portal at ranks 1-10, and per expansion its three clicks.
    pool_tails, hub_tails, portal_tails, expansion_tails = [], [], [], []
    for i, t in enumerate(topics):
        pool = [f"http://{t}.example.com/p{j}" for j in range(URLS_PER_TOPIC)]
        hub = f"http://group{i // SIBLINGS_PER_GROUP:02d}.example.com/hub"
        pool_tails.append([f"\t{t}\t{url}\t{j + 1}" for j, url in enumerate(pool)])
        hub_tails.append([f"\t{t}\t{hub}\t{rank}" for rank in range(2, 7)])
        portal_tails.append([f"\t{t}\t{portal}\t{rank}" for rank in range(1, 11)])
        # Expansion k prefers URLs 2k and 2k + 1 of the topic pool, which
        # holds them since FACETS_PER_TOPIC * 2 <= URLS_PER_TOPIC: its first
        # click is on either at rank 1, a second one on 2k + 1 at rank 2.
        expansion_tails.append(
            [
                (f"\t{t} {f}\t{a}\t1", f"\t{t} {f}\t{b}\t1", f"\t{t} {f}\t{b}\t2")
                for f, a, b in zip(topic_facets[i], pool[0::2], pool[1::2])
            ]
        )
    junk_tails = [f"\tjunk{k}\thttp://junk{k}.example.com/\t1" for k in range(6)]
    siblings = [_siblings(i, cfg.n_topics) for i in range(cfg.n_topics)]

    taxonomy: list[str] = []
    for i, t in enumerate(topics):
        path = _topic_path(i)
        for k in range(2):
            taxonomy.append(
                f"http://{t}.example.com/p{k}\t{t} portal {k}\tall about {t}\t{path}"
            )
        for f in topic_facets[i]:
            taxonomy.append(
                f"http://{t}.example.com/{f}\t{t} {f}\t{f} pages for {t}\t{path}"
            )

    lines: list[str] = []
    append = lines.append
    users = [f"u{u:03d}" for u in range(cfg.n_users)]
    user_clock = [1_000_000 + 37 * _clock_offset(u) for u in range(cfg.n_users)]

    # Each click appends its line at the user's clock ts, then moves the
    # clock 5-30 s on; both helpers return the clock after their clicks.
    def click_topic(user: str, ts: int, i: int) -> int:
        j = min(below(URLS_PER_TOPIC), below(URLS_PER_TOPIC))
        append(f"{ts}\t{user}{pool_tails[i][j]}")
        ts += 5 + below(26)
        if rand() < 0.25:
            append(f"{ts}\t{user}{hub_tails[i][below(5)]}")
            ts += 5 + below(26)
        if rand() < 0.10:
            append(f"{ts}\t{user}{portal_tails[i][below(10)]}")
            ts += 5 + below(26)
        return ts

    def click_expansion(user: str, ts: int, tails: tuple[str, str, str]) -> int:
        append(f"{ts}\t{user}{tails[0] if rand() < 0.7 else tails[1]}")
        ts += 5 + below(26)
        if rand() < 0.3:
            append(f"{ts}\t{user}{tails[2]}")
            ts += 5 + below(26)
        return ts

    while len(lines) < cfg.n_events:
        u = below(cfg.n_users)
        i = below(cfg.n_topics)
        user = users[u]
        ts = user_clock[u] + SESSION_TIMEOUT_S * 4 + 60 + below(541)

        ts = click_topic(user, ts, i)
        if rand() < 0.6:
            ts = click_expansion(user, ts, expansion_tails[i][below(FACETS_PER_TOPIC)])
        sibs = siblings[i]
        if sibs and rand() < 0.7:
            s = sibs[below(len(sibs))]
            ts = click_topic(user, ts, s)
            if rand() < 0.4:
                ts = click_expansion(user, ts, expansion_tails[s][below(FACETS_PER_TOPIC)])
        if rand() < 0.3:
            ts = click_topic(user, ts, below(cfg.n_topics))
        if rand() < 0.15:
            append(f"{ts}\t{user}{junk_tails[below(len(junk_tails))]}")
            ts += 5 + below(26)
        user_clock[u] = ts

    return lines, taxonomy


def _clock_offset(u: int) -> int:
    """Small deterministic spread for initial user clocks (no str hashing)."""
    return (u * 2654435761) % 1000
