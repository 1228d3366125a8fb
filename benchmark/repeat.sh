#!/usr/bin/env bash
# Repeatability: run N full sets (every workload, untraced, a different
# seed per set), then print min / median / max and the interquartile
# spread of every end-to-end metric per workload against its bound in
# BENCHMARK.json. Exits non-zero when a spread exceeds its bound or a run
# is incorrect.
#
#   benchmark/repeat.sh [N=5]      full-length sets, bounds enforced
#   benchmark/repeat.sh --quick    one short set (<= 15 s), nothing enforced
set -euo pipefail
cd "$(dirname "$0")/.."

sets=5
extra=()
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ "${1:-}" = "--quick" ]; then
  sets=1
  seconds=1
  extra=(--quick)
elif [ -n "${1:-}" ]; then
  sets=$1
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/odbis-e2e"
out=benchmark/out/repeat
rm -rf "$out"
mkdir -p "$out"

echo "host: $(nproc) cpus, kernel $(uname -r), $(stat -f -c %T benchmark) under the data dir, rev $(git rev-parse --short HEAD 2>/dev/null || echo none)"
for set in $(seq 1 "$sets"); do
  for workload in dash_read ingest_durable mixed_fresh tenant_small; do
    "$bin" --workload "$workload" --seed $((10 + set)) --seconds "$seconds" --trace 0 "${extra[@]}" \
      | tail -n 1 > "$out/$workload.$set.json"
  done
  echo "set $set of $sets done" >&2
done

python3 benchmark/spread.py "$out" "$sets" "${extra[@]}"
