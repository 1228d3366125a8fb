#!/usr/bin/env bash
# Sensitivity: a deliberately slowed layer shows where predicted and
# nowhere else. Arms wal.write=delay(1) — one millisecond per WAL append —
# through POST /api/v1/admin/failpoints (no product code is edited) and
# compares against an unarmed run of the same seed:
#
#   write_p50_us on ingest_durable must worsen past its bound, by at least
#   the 1 000 us each append now takes (more, in fact: the delay sits under
#   the WAL file mutex the two connections share, so a write also waits out
#   the other connection's appends); dash_p50_us on dash_read must stay
#   inside its bound; and dash_read's off-mix write probe - one client, one
#   append per statement - must gain about 1 000 us.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${1:-11}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/odbis-e2e"
out=benchmark/out/sensitivity
rm -rf "$out"
mkdir -p "$out"

for workload in ingest_durable dash_read; do
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    | tail -n 1 > "$out/$workload.base.json"
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    --failpoint 'wal.write=delay(1)' | tail -n 1 > "$out/$workload.slow.json"
done

python3 benchmark/sensitivity.py "$out"
