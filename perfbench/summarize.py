"""Medians and quartiles of the run records in perfbench/out/, as JSON.

    python3 perfbench/summarize.py > summary.json

For each workload: every end-to-end metric and every report metric over the
untraced runs (values, median, quartiles and the quartile spread as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them), and for
each traced run its per-layer metrics and exact counts.
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def describe(values):
    values = [v for v in values if v is not None]
    out = {"n": len(values), "values": values}
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        out.update(median=median, q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main():
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-trace[01].json"))]
    summary = {"environment": records[0]["environment"] if records else None, "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        untraced = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        metrics = sorted({k for r in untraced for k in r["metrics"]})
        report = sorted({k for r in untraced for k, v in r["report"].items() if isinstance(v, (int, float))})
        summary["workloads"][workload] = {
            "seeds": [r["seed"] for r in untraced],
            "seconds": sorted({r["seconds"] for r in untraced}),
            "end_to_end": {k: describe([r["metrics"].get(k) for r in untraced]) for k in metrics},
            "report": {k: describe([r["report"].get(k) for r in untraced]) for k in report},
            "traced": [{"seed": r["seed"], "counts": r["counts"], "metrics": r["metrics"]} for r in traced],
        }
    json.dump(summary, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
