"""Compare two sets of benchmark result records.

Usage::

    python3 perfbench/compare.py BASE CHANGE

``BASE`` and ``CHANGE`` are result files or directories of them (as
``run.py`` writes under ``.perfbench/results/``).  Only end-to-end records
(``--trace 0``) are compared.  For each workload and metric the table gives
each side's median and quartiles and a verdict, following the rule the
benchmark fixes for a claimed change:

* ``better``: the change wins at least 9 of every 10 pairs (runs paired by
  seed, ties counting for neither) and the medians differ by more than the
  base's interquartile range;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound from ``BENCHMARK.json``;
* ``unresolved``: the run-to-run spread (IQR over median, either side) is
  wider than the bound, unless every change run reads better than every
  base run;
* ``within``: none of the above.

Output digests of the same workload and seed are compared as well; a
mismatch means the two sides computed different results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(target: str) -> list[dict]:
    path = Path(target)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text())
        if record.get("trace") == 0 and "metrics" in record:
            records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs paired by seed; by position when the seeds do not match."""
    by_seed = {record["seed"]: record for record in base}
    matched = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    return matched or list(zip(base, change))


def verdict(base: list[float], change: list[float], paired: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> str:
    def better(new: float, old: float) -> bool:
        return new < old if lower_is_better else new > old

    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for old, new in paired if better(new, old))
    if paired and wins >= 0.9 * len(paired) and abs(c_med - b_med) > b_q3 - b_q1:
        return "better"
    spread = max(
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    if spread > bound:
        if all(better(new, old) for new in change for old in base):
            return "within"
        return "unresolved"
    worse_by = (c_med - b_med) if lower_is_better else (b_med - c_med)
    if b_med and worse_by / abs(b_med) > bound:
        return "worse"
    return "within"


def compare(base: list[dict], change: list[dict], spec: dict) -> list[dict]:
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in change})
    for workload in workloads:
        base_runs = [r for r in base if r["workload"] == workload]
        change_runs = [r for r in change if r["workload"] == workload]
        paired = pairs(base_runs, change_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base_values = [r["metrics"][name]["value"] for r in base_runs]
            change_values = [r["metrics"][name]["value"] for r in change_runs]
            pair_values = [
                (old["metrics"][name]["value"], new["metrics"][name]["value"])
                for old, new in paired
            ]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "base": quartiles(base_values),
                "change": quartiles(change_values),
                "runs": (len(base_values), len(change_values)),
                "verdict": verdict(
                    base_values, change_values, pair_values,
                    metric["bound"], metric["better"] == "lower",
                ),
            })
        for old, new in paired:
            if old["samples"].get("digests") != new["samples"].get("digests"):
                rows.append({
                    "workload": workload, "metric": f"digest seed {new['seed']}",
                    "verdict": "digest differs",
                })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of result records.")
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--json", action="store_true", help="print rows as JSON")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base, change = load_records(args.base), load_records(args.change)
    if not base or not change:
        print("compare: no end-to-end records on one side", file=sys.stderr)
        return 2
    rows = compare(base, change, spec)
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"{'workload':12} {'metric':20} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32}  verdict")
    for row in rows:
        if "base" not in row:
            print(f"{row['workload']:12} {row['metric']:20} {'':>32} {'':>32}  {row['verdict']}")
            continue
        base_text = "/".join(f"{v:.4g}" for v in row["base"])
        change_text = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:12} {row['metric']:20} {base_text:>32} "
              f"{change_text:>32}  {row['verdict']} ({row['unit']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
