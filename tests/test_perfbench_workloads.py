"""The benchmark's workloads still run on the current sources.

``perfbench/workloads.py`` calls clickrec through its public functions and
reads fields of what they return.  Each workload's set-up and two passes run
here on the tiny criterion-7 corpus, and the two passes must give the same
bytes, so a change that breaks the benchmark fails tier 1 first.  The file
is only read here, never changed.
"""

import runpy
from pathlib import Path

import pytest

WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


@pytest.mark.parametrize("name", sorted(WORKLOADS["WORKLOADS"]))
def test_workload_runs_and_repeats(tmp_path, name):
    setup, one_pass, _ = WORKLOADS["WORKLOADS"][name]
    run = WORKLOADS["Run"](str(tmp_path), 5, tiny=True)
    setup(run)
    first, second = one_pass(run), one_pass(run)
    assert first and first == second
    if "out/report.tsv" in first:
        assert WORKLOADS["report_gbdt_wins"](first["out/report.tsv"]) == []
