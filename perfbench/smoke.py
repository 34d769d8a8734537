"""Smoke test of the benchmark itself.

Runs every workload for one second, untraced and traced, and asserts that
the last output line is the result object, that every metric named in
``BENCHMARK.json`` is printed with its unit, and that the correctness gate
passed.  Then checks that the benchmark, copied without the program next
to it, fails without printing a result.

    python3 perfbench/smoke.py

Uses its own seed, so its cached workloads never mix with measured ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SMOKE_SEED = 990001
SECONDS = "1"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SMOKE_SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: gate failed: {done.stderr.strip()[-300:]}")
    expected = spec["per_layer" if trace else "end_to_end"]
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {metric['name']} printed as {got}")
    if len(result["metrics"]) != len(expected):
        problems.append(f"{where}: {len(result['metrics'])} metrics, {len(expected)} named")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Without the program beside it the benchmark must fail, silently."""
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["bare directory: the benchmark did not fail without the program"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            problems.extend(check_result(spec, workload, trace))
    problems.extend(check_bare_directory(spec))
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
