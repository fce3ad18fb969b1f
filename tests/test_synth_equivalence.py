"""The getrandbits generator against the randint/randrange/choice reference.

``synth_reference`` is the generator that drew through ``random.Random``'s
public integer calls.  ``synth.synth_logs`` must give the same click lines
and taxonomy lines, in the same order, for every config: topic counts that
leave the last sibling group partial or give a topic no sibling, user ids
past three digits, event counts from one click up, and any seed, negative
ones included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference as ref
from clickrec import synth


@settings(max_examples=150, deadline=None)
@given(
    n_topics=st.integers(1, 130),
    n_users=st.integers(1, 1_100),
    n_events=st.integers(1, 3_000),
    seed=st.integers(),
)
def test_synth_matches_reference(n_topics, n_users, n_events, seed):
    cfg = synth.SynthConfig(n_topics=n_topics, n_users=n_users, n_events=n_events, seed=seed)
    assert synth.synth_logs(cfg) == ref.synth_logs(cfg)


@pytest.mark.parametrize("seed", [42, 2026])
@pytest.mark.parametrize("scale", [1, 2])
def test_benchmark_corpora_match_reference(scale, seed):
    # The corpora perfbench's crossval-1x and features-2x workloads start from.
    cfg = synth.SynthConfig(n_topics=60 * scale, n_events=30_000 * scale, seed=seed)
    assert synth.synth_logs(cfg) == ref.synth_logs(cfg)
