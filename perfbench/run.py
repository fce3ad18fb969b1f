"""clickrec benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload crossval-1x --seed 42 --seconds 5 --trace 0

The corpus comes from ``clickrec.synth`` with the given seed. An untraced
run sets up three times (serve-rank twice) and reports the median set-up
time, then repeats passes until ``--seconds`` have gone by (at least one
pass). Every pass's outputs must be byte-identical; at
seed 42 they must also match the sha256 digests in ``golden.json``, taken
at the commit that defined the benchmark, and across runs of one seed and
source tree they must match the digests recorded under
``.bench_out/records``. On crossval-1x, GBDT's NDCG5 must be strictly above
each single signal's.

End-to-end metrics (``--trace 0``), on every workload:
  setup_s       median wall seconds of one set-up
  run_s         median wall seconds of one pass
  items_per_s   input log lines per second over all passes; rank requests
                per second on serve-rank
  peak_rss_mb   peak resident memory of the process (ru_maxrss)

A traced run (``--trace 1``) sets up once with spans around every call into
clickrec (see spans.py), makes one untraced pass and one traced pass, and
reports per-layer self times and counts; ``trace.overhead_s`` is the traced
pass time minus the untraced one. Layers that a workload does not run read
0. Every call runs in this one process with one client and no queues, so no
layer waits, and a faster layer saves at most its self time.

``--tiny`` swaps every corpus for the 16-topic, 6k-event corpus of
acceptance criterion 7 with 15 trees; smoke.py uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
GOLDEN_SEED = 42
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Counts that must repeat exactly between traced runs of one seed and source.
EXACT_COUNTS = (
    "gbdt.nodes",
    "gbdt.predict_calls",
    "features.build_calls",
    "candidates.pairs",
    "pipeline.dataset_rows",
    "taxonomy.clusters",
    "logs.records_kept",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="criterion-7 corpus, for smoke.py")
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clickrec").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def outputs_digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + hashlib.sha256(outputs[name]).digest())
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


class Checks:
    """Output checks; each is one attempted operation."""

    def __init__(self, record_path: Path):
        self.attempted = 0
        self.errors: list[str] = []
        self.record_path = record_path

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)

    def repeat(self, key: str, value) -> None:
        """Compare with the value an earlier run stored, else store it."""
        path = self.record_path
        record = json.loads(path.read_text()) if path.exists() else {}
        if key in record:
            self.expect(record[key] == value, f"{key} {value} differs from an earlier run's {record[key]}")
            return
        record[key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, sort_keys=True))
        tmp.replace(path)


def units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clickrec" / "__init__.py").is_file():
        print(f"error: clickrec sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]

    import numpy

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup, one_pass, setups = workloads.WORKLOADS[args.workload]
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (OUT / "records").mkdir(exist_ok=True)
    src_digest = source_digest()
    label = args.workload + ("-tiny" if args.tiny else "")
    checks = Checks(OUT / "records" / f"{label}-seed{args.seed}-{src_digest[:16]}.json")
    run = workloads.Run(str(workdir), args.seed, args.tiny)
    tracer = spans.Tracer() if args.trace else None
    outputs: list[dict[str, bytes]] = []
    latencies: list[float] = []
    crashed = 0

    try:
        if tracer:
            run.tracer = tracer
            with tracer.installed(), run.timed("setup", run.setup_s):
                setup(run)
            run.tracer = None
        else:
            for _ in range(setups):
                run.state = {}
                with run.timed("setup", run.setup_s):
                    setup(run)
        start = time.perf_counter()
        while not outputs or (not tracer and time.perf_counter() - start < args.seconds):
            outputs.append(one_pass(run))
        latencies = list(run.latencies_s)
        if tracer:
            run.tracer = tracer
            with tracer.installed():
                outputs.append(one_pass(run))
            run.tracer = None
    except Exception:
        traceback.print_exc()
        crashed = 1

    digests = [outputs_digest(o) for o in outputs]
    report = outputs[0].get("out/report.tsv") if outputs else None
    if digests:
        checks.expect(len(set(digests)) == 1, f"passes gave different outputs: {digests}")
        checks.repeat("digest", digests[0])
        if args.seed == GOLDEN_SEED and not args.tiny:
            golden = json.loads((BENCH / "golden.json").read_text())[args.workload]
            checks.expect(digests[0] == golden, f"outputs {digests[0]} differ from golden.json {golden}")
    if report is not None:
        losses = workloads.report_gbdt_wins(report)
        checks.expect(not losses, "; ".join(losses))

    if tracer:
        section = "per_layer"
        values = {}
        if not crashed:
            nodes = [workloads.model_nodes(m, run.path("nodes.txt")) for _, m in tracer.kept["gbdt.fit"]]
            values = spans.layer_metrics(tracer, nodes)
            traced_setup, untraced_pass, traced_pass = run.setup_s[0], run.pass_s[0], run.pass_s[-1]
            values["trace.setup_s"] = traced_setup
            values["trace.run_s"] = traced_pass
            values["trace.overhead_s"] = traced_pass - untraced_pass
            self_total = sum(tracer.self_times()[0].values())
            checks.expect(
                abs(self_total - traced_setup - traced_pass) < 1e-3,
                f"self times sum to {self_total}s, traced phases to {traced_setup + traced_pass}s",
            )
            for key in EXACT_COUNTS:
                checks.repeat(key, values[key])
            values.update(serve_metrics(latencies))
            values.update(workloads.report_quality(report))
            tracer.write(workdir / f"spans-seed{args.seed}.jsonl")
    else:
        section = "end_to_end"
        passes_s = sum(run.pass_s)
        values = {
            "setup_s": statistics.median(run.setup_s),
            "run_s": statistics.median(run.pass_s),
            "items_per_s": run.items * len(run.pass_s) / passes_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        } if run.pass_s and not crashed else {}

    wanted = units(section)
    missing = sorted(set(wanted) - set(values))
    if missing and not crashed:
        raise KeyError(f"metrics not computed: {missing}")
    failed = crashed + len(checks.errors)
    attempted = run.attempted + checks.attempted + crashed
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in wanted.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "commit": git_commit(),
        "source_sha256": src_digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "outputs_sha256": digests[0] if digests else None,
        "setups": len(run.setup_s),
        "passes": len(run.pass_s),
        "rank_requests": len(latencies),
    }
    for err in checks.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{k:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"ops_failed_ratio {failed / max(1, attempted):.6g} ({failed} of {attempted})", file=sys.stderr)
    print("waiting time: none; one process, one client, no queues", file=sys.stderr)
    print(f"record {json.dumps(record)}", file=sys.stderr)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"record": record, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def serve_metrics(latencies: list[float]) -> dict[str, float]:
    """Per-request latency of the untraced pass; zeros without requests."""
    if not latencies:
        return dict.fromkeys(
            ("serve.rank_p50_ms", "serve.rank_p99_ms", "serve.rank_qps", "serve.requests"), 0.0
        )
    return {
        "serve.rank_p50_ms": 1e3 * percentile(latencies, 50),
        "serve.rank_p99_ms": 1e3 * percentile(latencies, 99),
        "serve.rank_qps": len(latencies) / sum(latencies),
        "serve.requests": len(latencies),
    }



if __name__ == "__main__":
    sys.exit(main())
