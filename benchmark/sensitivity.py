#!/usr/bin/env python3
"""Judge the runs sensitivity.sh collected: which metrics moved past their
bound under the injected WAL delay, and which stayed inside it."""
import json, sys
out = sys.argv[1]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
def value(workload, arm, metric):
    run = json.load(open(f"{out}/{workload}.{arm}.json"))
    assert run["correct"], f"{workload} ({arm}) was not correct"
    return run["metrics"][metric]["value"]
ok = True
print(f"{'workload':<16}{'metric':<14}{'base':>12}{'delay(1)':>12}{'change':>9}{'bound':>7}  predicted")
for workload, metric, must_move in [
    ("ingest_durable", "write_p50_us", True),
    ("ingest_durable", "ops_per_s", True),
    ("dash_read", "dash_p50_us", False),
    ("dash_read", "ops_per_s", False),
    ("dash_read", "write_p50_us", True),
]:
    base, slow = value(workload, "base", metric), value(workload, "slow", metric)
    worse = (base - slow) / base if metric == "ops_per_s" else (slow - base) / base
    moved = worse > bounds[metric]
    verdict = "moves" if must_move else "stays"
    ok &= moved == must_move
    print(f"{workload:<16}{metric:<14}{base:>12.1f}{slow:>12.1f}{worse:>+9.1%}{bounds[metric]:>7.0%}  {verdict}: {'yes' if moved == must_move else 'NO'}")
def gained(workload):
    return value(workload, "slow", "write_p50_us") - value(workload, "base", "write_p50_us")
shared, single = gained("ingest_durable"), gained("dash_read")
print(f"\nfor a 1 000 us delay per append, write_p50_us gained {shared:.0f} us on ingest_durable")
print(f"(two writers behind one WAL mutex) and {single:.0f} us on dash_read's probe (one writer)")
ok &= shared >= 800 and 800 <= single <= 1600
sys.exit(0 if ok else 1)
