#!/usr/bin/env bash
# One command: build, then run every workload untraced (end-to-end
# metrics) and traced (per-layer metrics and the waterfall rungs).
#
#   benchmark/run_all.sh [seed=11]
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${1:-11}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/odbis-e2e"
echo "host: $(nproc) cpus, kernel $(uname -r), $(stat -f -c %T benchmark) under the data dir, rev $(git rev-parse --short HEAD 2>/dev/null || echo none)"
status=0
for trace in 0 1; do
  "$bin" --workload all --seed "$seed" --seconds "$seconds" --trace "$trace" || status=$?
done
exit "$status"
