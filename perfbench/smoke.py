"""Smoke test of the benchmark itself, on the tiny criterion-7 corpus.

    python3 perfbench/smoke.py

Runs every workload once untraced and twice traced (the second traced run
checks that the exact counts repeat), and checks that each run exits 0,
passes its output checks and prints every metric of BENCHMARK.json with its
unit. Then checks that the benchmark refuses to run, printing no result,
in a directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 5


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    r = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if r.returncode != 0:
        return [f"{where}: exit {r.returncode}\n{r.stderr}"]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} of {result['attempted']}\n{r.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics/units {got} != {wanted}")
    for k, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: {k} value {m['value']!r} is not a number")
    return errors


def check_refuses_without_sources(workload: str) -> list[str]:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = bench(bare, workload, 0)
    shutil.rmtree(bare)
    if r.returncode == 0 or r.stdout.strip():
        return [f"bare directory: exit {r.returncode}, stdout {r.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1, 1):
            errors += check_run(spec, w["name"], trace)
    errors += check_refuses_without_sources(spec["workloads"][0]["name"])
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
