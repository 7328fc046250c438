"""Spread of end-to-end metrics over a set of runs, as the acceptance check takes it.

    python3 perfbench/summarize.py RESULTS.json... [--baseline OUT.json]

For each workload and end-to-end metric: the median over the runs, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.  With
``--baseline`` it also writes these figures, with every run's metrics,
environment record and (for traced runs) span summary, to one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spreads(records: list[dict], declared: list[dict]) -> dict:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        if record["trace"] == 0:
            by_workload[record["workload"]].append(record)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        out[workload] = {"runs": len(runs), "seeds": [r["seed"] for r in runs], "metrics": {}}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            out[workload]["metrics"][m["name"]] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"], "values": values,
            }
        out[workload]["failed_ops"] = sum(r["failed"] for r in runs)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    records = [json.loads(p.read_text()) for p in args.results]
    table = spreads(records, declared)
    for workload, row in table.items():
        print(f"{workload}: {row['runs']} runs, {row['failed_ops']} failed ops")
        for name, m in row["metrics"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <- above a third of the bound"
            print(f"  {name:12s} median {m['median']:12.6g}  IQR/median {m['spread']:.4f}  bound {m['bound']}{flag}")
    if args.baseline:
        keep = ("workload", "seed", "trace", "env", "metrics", "failed_ops_ratio", "span_summary")
        doc = {"summary": table, "runs": [{k: r[k] for k in keep if k in r} for r in records]}
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
