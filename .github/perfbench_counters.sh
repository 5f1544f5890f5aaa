#!/usr/bin/env bash
# Print the exact counters of a traced `perfbench` run at seed 77 on
# `serve_cold` and `batch_offline`, one `workload counter value` line
# each: improvement rounds and attempts, and the oracle's table misses,
# pair misses and DP fills. They come from the width-1 pass and repeat
# on any host, so CI diffs them against `perfbench_counters.txt`.
#
# Run from the repository root. A change that moves these counters on
# purpose re-blesses the file, as with the goldens, and says why:
#
#   .github/perfbench_counters.sh > .github/perfbench_counters.txt
set -euo pipefail
for workload in serve_cold batch_offline; do
  cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 77 --seconds 1 --trace 1 |
    awk -v w="$workload" '$1 ~ /^(improve\.(rounds|attempts)|oracle\.(table_misses|pair_misses|dp_fills))$/ {
      printf "%s %s %d\n", w, $1, $2
    }'
done
