"""Reference synthetic corpus for equivalence tests.

This is the ``synth_logs`` that ``clickrec.synth`` used before every draw
went through one ``getrandbits`` loop and each line's query, URL and rank
were formatted once per call.  It draws through ``random.Random``'s
``randint``, ``randrange`` and ``choice`` and keeps each user's clock in a
dict.  It is the specification the fast generator must match: the same
click lines and taxonomy lines, in the same order.
"""

from __future__ import annotations

import random

from clickrec.logs import SESSION_TIMEOUT_S
from clickrec.synth import (
    FACETS,
    FACETS_PER_TOPIC,
    SIBLINGS_PER_GROUP,
    URLS_PER_TOPIC,
    SynthConfig,
    _clock_offset,
    _siblings,
    _topic_name,
    _topic_path,
)


def synth_logs(cfg: SynthConfig) -> tuple[list[str], list[str]]:
    """Generate (click log lines, taxonomy lines), deterministic in the seed."""
    rng = random.Random(cfg.seed)
    topics = [_topic_name(i) for i in range(cfg.n_topics)]
    pools = {
        i: [f"http://{t}.example.com/p{j}" for j in range(URLS_PER_TOPIC)]
        for i, t in enumerate(topics)
    }
    # Facet subset per topic, rotated so every facet word ends enough queries.
    topic_facets = {
        i: [FACETS[(i + k) % len(FACETS)] for k in range(FACETS_PER_TOPIC)]
        for i in range(cfg.n_topics)
    }
    # Expansion k prefers URLs 2k and 2k + 1 of the topic pool, which
    # holds them since FACETS_PER_TOPIC * 2 <= URLS_PER_TOPIC.
    pref = {
        (i, f): [pools[i][k * 2], pools[i][k * 2 + 1]]
        for i in range(cfg.n_topics)
        for k, f in enumerate(topic_facets[i])
    }
    hub = {
        g: f"http://group{g:02d}.example.com/hub"
        for g in range((cfg.n_topics + SIBLINGS_PER_GROUP - 1) // SIBLINGS_PER_GROUP)
    }
    portal = "http://portal.example.com/"
    junk = [f"junk{i}" for i in range(6)]
    junk_urls = [f"http://junk{i}.example.com/" for i in range(6)]

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
    user_clock = {u: 1_000_000 + 37 * _clock_offset(u) for u in range(cfg.n_users)}

    def click(user: int, query: str, url: str, rank: int):
        ts = user_clock[user]
        lines.append(f"{ts}\tu{user:03d}\t{query}\t{url}\t{rank}")
        user_clock[user] += rng.randint(5, 30)

    def click_topic(user: int, i: int):
        j = min(rng.randrange(URLS_PER_TOPIC), rng.randrange(URLS_PER_TOPIC))
        click(user, topics[i], pools[i][j], j + 1)
        if rng.random() < 0.25:
            click(user, topics[i], hub[i // SIBLINGS_PER_GROUP], rng.randint(2, 6))
        if rng.random() < 0.10:
            click(user, topics[i], portal, rng.randint(1, 10))

    def click_expansion(user: int, i: int, f: str):
        q = f"{topics[i]} {f}"
        urls = pref[(i, f)]
        click(user, q, urls[0] if rng.random() < 0.7 else urls[1], 1)
        if rng.random() < 0.3:
            click(user, q, urls[1], 2)

    while len(lines) < cfg.n_events:
        user = rng.randrange(cfg.n_users)
        i = rng.randrange(cfg.n_topics)
        user_clock[user] += SESSION_TIMEOUT_S * 4 + rng.randint(60, 600)

        click_topic(user, i)
        if rng.random() < 0.6:
            click_expansion(user, i, rng.choice(topic_facets[i]))
        sibs = _siblings(i, cfg.n_topics)
        if sibs and rng.random() < 0.7:
            s = rng.choice(sibs)
            click_topic(user, s)
            if rng.random() < 0.4:
                click_expansion(user, s, rng.choice(topic_facets[s]))
        if rng.random() < 0.3:
            other = rng.randrange(cfg.n_topics)
            click_topic(user, other)
        if rng.random() < 0.15:
            k = rng.randrange(len(junk))
            click(user, junk[k], junk_urls[k], 1)

    return lines, taxonomy
