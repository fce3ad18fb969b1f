"""The benchmark's traced path still runs on the current sources.

A traced run (``perfbench/run.py --trace 1``) wraps clickrec's functions in
spans and derives its per-layer metrics from what they were called with and
returned: ``Dataset.rows``, ``DatasetRow.kinds``, ``Ensemble.trees``,
``CategoryAssignment.votes`` and more.  Each workload's set-up and one pass
run here under the tracer on the tiny criterion-7 corpus, as run.py does,
and every metric ``spans.layer_metrics`` returns must be a finite number.
Both files are only read here, never changed.
"""

import math
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
SPANS = runpy.run_path(str(PERFBENCH / "spans.py"))


@pytest.mark.parametrize("name", sorted(WORKLOADS["WORKLOADS"]))
def test_traced_workload_gives_finite_layer_metrics(tmp_path, name):
    setup, one_pass, _ = WORKLOADS["WORKLOADS"][name]
    run = WORKLOADS["Run"](str(tmp_path), 5, tiny=True)
    tracer = SPANS["Tracer"]()
    run.tracer = tracer
    with tracer.installed():
        with run.timed("setup", run.setup_s):
            setup(run)
        assert one_pass(run)
    run.tracer = None
    nodes = [
        WORKLOADS["model_nodes"](model, str(tmp_path / "nodes.txt"))
        for _, model in tracer.kept["gbdt.fit"]
    ]
    metrics = SPANS["layer_metrics"](tracer, nodes)
    assert metrics
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad
