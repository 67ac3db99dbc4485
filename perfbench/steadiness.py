"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b]

For every (workload, end-to-end metric) it prints the median of the runs
and the spread (Q3 - Q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound from BENCHMARK.json. A spread above the bound means the benchmark
cannot resolve a change of that size. Runs go one after another, so they
never compete for the CPU. The raw results land in
``.perfbench_work/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import ROOT, WORK, invoke


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            res, output = invoke(workload, seed, spec["run_seconds"], 0)
            if res is None:
                print(f"{workload} seed {seed}: {output}")
                return 1
            res["seed"] = seed
            results.setdefault(workload, []).append(res)
            values = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
            print(f"{workload} seed {seed}: failed {res['failed']}/{res['attempted']} {values}",
                  flush=True)

    print(f"\n{'workload':<16} {'metric':<18} {'median':>10} {'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            bound = bounds[name]
            flag = "  above a third of bound" if spread > bound / 3 else ""
            print(f"{workload:<16} {name:<18} {med:>10.4f} {spread:>8.3f} {bound:>6}{flag}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload:<16} failed/attempted {failed}/{attempted}")
    out = WORK / "steadiness.json"
    WORK.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
