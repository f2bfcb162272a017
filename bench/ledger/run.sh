#!/usr/bin/env bash
# Build the case ledger from this source tree and run it.
#
#   bench/ledger/run.sh [--workload NAME] [--seed S] [--seconds 10]
#                       [--trace 0|1] [--smoke] [--out FILE]
#
# Configures and builds into build-ledger/ at the repository root (build
# output goes to stderr), then runs the ledger from the root, so its
# report, trace and spill directory stay inside the checkout. The last
# line of stdout is the JSON result.
#
# Without --workload, every workload runs, each in its own process, so
# process-wide numbers such as peak RSS stay per workload. The exit code
# is then nonzero if any workload failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src/sickle" ||
      ! -f "$root/bench/bench_util.hpp" ]]; then
  echo "ledger: $root is not a SICKLE source tree; nothing to build" >&2
  exit 2
fi

cd "$root"
build="$root/build-ledger"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --parallel "$(nproc)" >&2

for arg in "$@"; do
  [[ "$arg" == --workload ]] && exec "$build/ledger" "$@"
done
for arg in "$@"; do
  if [[ "$arg" == --out ]]; then
    echo "ledger: --out needs --workload" >&2
    exit 2
  fi
done
status=0
for workload in curate-series train-dense ooc-skl2 serve-closed4; do
  "$build/ledger" --workload "$workload" "$@" || status=1
done
exit "$status"
