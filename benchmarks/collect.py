"""Collect parent/change benchmark pairs into one checked-in JSON record.

Each side of a comparison is a set of ``perfbench/_work/*/report.json``
files written by ``python3 perfbench/run.py --trace 0``, one per run.  Runs
are paired by workload and seed; a seed run on only one side is left out.
For every workload and end-to-end metric the record holds both medians, the
relative change of the medians, the parent's quartile spread relative to
its median, the number of pairs and, per pair in seed order, the direction
of the change's value against the parent's (``-`` lower, ``+`` higher,
``=`` equal).  Per op class, it also holds each side's median over the runs
of the class's unit cost in microseconds, as the reports give it in
``rates.unit_cost_us_by_class``, and their relative change; a class is left
out unless every run on both sides reports it.  The host and source digests
the reports carry are copied alongside, as are the failed-op counts.
Standard library only.

    python3 benchmarks/collect.py --out BENCH.json \\
        --parent PARENT/perfbench/_work/*-trace0/report.json \\
        --change CHANGE/perfbench/_work/*-trace0/report.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# The gated metrics, with their units, as the benchmark declares them.
END_TO_END = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())[
    "end_to_end"
]


def load(paths: list[str]) -> dict[tuple[str, int], dict]:
    """Reports keyed by (workload, seed); traced runs are refused."""
    runs = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        meta = report["meta"]
        if meta["trace"]:
            raise SystemExit(f"{path}: a traced run (--trace 1) has no comparable timings")
        key = (meta["workload"], meta["seed"])
        if key in runs:
            raise SystemExit(f"{path}: a second run of workload {key[0]} at seed {key[1]}")
        runs[key] = report
    return runs


def _direction(parent: float, change: float) -> str:
    return "-" if change < parent else "+" if change > parent else "="


def _class_costs(pairs: list[tuple[dict, dict]]) -> dict:
    """Per op class, each side's median unit cost (us) over the runs, and the change."""
    by_class = [
        [r.get("rates", {}).get("unit_cost_us_by_class", {}) for r in side] for side in zip(*pairs)
    ]
    common = set.intersection(*(set(costs) for side in by_class for costs in side))
    out = {}
    for cls in sorted(common):
        before, after = (statistics.median(costs[cls] for costs in side) for side in by_class)
        out[cls] = {
            "parent_median_us": before,
            "change_median_us": after,
            "change_pct": 100 * (after / before - 1),
        }
    return out


def collect(parent: dict, change: dict) -> dict:
    workloads = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        metrics = {}
        for metric in END_TO_END:
            name = metric["name"]
            before = [p["metrics"][name] for p, _ in pairs]
            after = [c["metrics"][name] for _, c in pairs]
            median_before, median_after = statistics.median(before), statistics.median(after)
            entry = {
                "unit": metric["unit"],
                "better": metric["better"],
                "pairs": len(pairs),
                "parent_median": median_before,
                "change_median": median_after,
                "change_pct": 100 * (median_after / median_before - 1),
                "directions": "".join(_direction(b, a) for b, a in zip(before, after)),
            }
            if len(before) >= 2:
                q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive")
                entry["parent_quartile_spread_pct"] = 100 * (q3 - q1) / median_before
            metrics[name] = entry
        workloads[workload] = {
            "seeds": seeds,
            # The host and the code each side ran, as every report records them.
            "host": {
                key: sorted({str(r["meta"][key]) for pair in pairs for r in pair})
                for key in ("implementation", "python", "cpus_usable", "seconds")
            },
            "source_sha256": {
                "parent": sorted({p["meta"]["source_sha256"] for p, _ in pairs}),
                "change": sorted({c["meta"]["source_sha256"] for _, c in pairs}),
            },
            "failed_ops": {
                "parent": sum(p["failed"] for p, _ in pairs),
                "change": sum(c["failed"] for _, c in pairs),
            },
            "metrics": metrics,
            "unit_cost_us_by_class": _class_costs(pairs),
        }
    return {"workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, help="report.json files of the parent")
    ap.add_argument("--change", nargs="+", required=True, help="report.json files of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    record = collect(load(args.parent), load(args.change))
    if not record["workloads"]:
        print("error: no workload has a seed run on both sides", file=sys.stderr)
        return 1
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
