#!/usr/bin/env python3
"""Summarise the result lines repeat.sh collected: per workload and metric,
min / median / max over the sets and the interquartile spread as a share of
the median, beside the bound BENCHMARK.json fixes for the metric."""
import json
import statistics
import sys

out, sets = sys.argv[1], int(sys.argv[2])
enforce = "--quick" not in sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
breaches = 0
for workload in (w["name"] for w in spec["workloads"]):
    runs = [json.load(open(f"{out}/{workload}.{s}.json")) for s in range(1, sets + 1)]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"\n{workload}: {failed} failed of {attempted} attempted over {sets} sets")
    if not all(r["correct"] for r in runs):
        print("  INCORRECT RUN")
        breaches += 1
        continue
    print(f"  {'metric':<22}{'unit':<5}{'min':>12}{'median':>12}{'max':>12}{'spread':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
        else:
            spread = 0.0
        over = enforce and m["name"] != "setup_s" and spread > m["bound"]
        breaches += over
        print(
            f"  {m['name']:<22}{m['unit']:<5}{min(values):>12.4g}{median:>12.4g}{max(values):>12.4g}"
            f"{spread:>9.1%}{m['bound']:>7.0%}{'  BREACH' if over else ''}"
        )
sys.exit(1 if breaches else 0)
