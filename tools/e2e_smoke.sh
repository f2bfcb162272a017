#!/usr/bin/env bash
# End-to-end smoke of the sickle_train CLI: run the config-driven case
# runner on a tiny dataset once per backend (memory | skl2 | series, with
# streaming ingest), then for every lossless codec (raw | delta | gorilla,
# plus zstd when the binary was built with it) on the series/streaming
# backend, then with reader-side async prefetch on, and verify that the
# sample-set hash and the test loss are identical across every run — the
# bit-identity contract the staged orchestrator promises for lossless
# codecs. The full backend x ingest x temporal matrix runs in ctest
# (CaseMatrix in tests/test_case.cpp); this script proves the CLI reaches
# every backend and codec.
#
# Usage: tools/e2e_smoke.sh [path/to/sickle_train]
# Local repro:  cmake -B build -S . && cmake --build build -j --target sickle_train
#               tools/e2e_smoke.sh build/sickle_train
set -euo pipefail

BIN=${1:-build/sickle_train}
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN is not an executable (build the sickle_train tool first)" >&2
  exit 2
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Emit the case config for one (backend, ingest, codec) combination; an
# optional fifth argument sets the sampling pool width (subsample.threads)
# and an optional sixth the reader-side readahead (store.prefetch_depth).
write_cfg() {
  local cfg=$1 backend=$2 ingest=$3 codec=$4 threads=${5:-1} prefetch=${6:-0}
  cat > "$cfg" <<EOF
shared:
  dataset: SST-P1F4
  scale: 0.5
  seed: 3

subsample:
  hypercubes: random
  method: maxent
  num_hypercubes: 3
  num_samples: 51
  num_clusters: 5
  nxsl: 8
  nysl: 8
  nzsl: 8
  threads: $threads

store:
  backend: $backend
  ingest: $ingest
  codec: $codec
  chunk: 16
  write_budget_mb: 1
  prefetch_depth: $prefetch
  spill_dir: $workdir/spill

train:
  arch: MLP_transformer
  epochs: 2
  batch: 4
  dim: 16
  heads: 2
EOF
}

ref_hash=""
ref_loss=""
ref_combo=""
runs=0

# Run one combination and check it against the reference.
check_combo() {
  local backend=$1 ingest=$2 codec=$3 prefetch=${4:-0}
  local cfg="$workdir/case_${backend}_${ingest}_${codec}_p${prefetch}.yaml"
  write_cfg "$cfg" "$backend" "$ingest" "$codec" 1 "$prefetch"
  echo "=== backend=$backend ingest=$ingest codec=$codec prefetch=$prefetch"
  local out
  out=$("$BIN" "$cfg")
  echo "$out" | grep -E "sample set hash|sampled points|Evaluation on test set|ingest peak"
  local hash loss
  hash=$(echo "$out" | sed -n 's/^sample set hash: //p')
  loss=$(echo "$out" | sed -n 's/^Evaluation on test set: //p')
  if [[ -z "$hash" || -z "$loss" ]]; then
    echo "error: missing hash/loss in output for $backend/$ingest/$codec" >&2
    exit 1
  fi
  if [[ -z "$ref_hash" ]]; then
    ref_hash="$hash"
    ref_loss="$loss"
    ref_combo="$backend/$ingest/$codec"
  elif [[ "$hash" != "$ref_hash" || "$loss" != "$ref_loss" ]]; then
    echo "error: $backend/$ingest/$codec diverged from $ref_combo:" >&2
    echo "  hash $hash vs $ref_hash, loss $loss vs $ref_loss" >&2
    exit 1
  fi
  runs=$((runs + 1))
}

for backend in memory skl2 series; do
  check_combo "$backend" streaming delta
done

# Codec sweep on the most demanding path (series container + streaming
# ingest): every lossless codec must leave the sample hash and training
# losses bit-identical. zstd is probed — a build without it rejects the
# config with a typed error, which the sweep reports as a skip.
for codec in raw gorilla zstd; do
  if [[ "$codec" == zstd ]]; then
    cfg="$workdir/probe_zstd.yaml"
    write_cfg "$cfg" series streaming zstd
    if ! "$BIN" "$cfg" > /dev/null 2>&1; then
      echo "=== codec=zstd skipped (binary built without zstd support)"
      continue
    fi
  fi
  check_combo series streaming "$codec"
done

# Readahead sweep: reader-side async block prefetch (store.prefetch_depth)
# may change WHEN blocks are decoded, never what they decode to — both
# series ingest modes with depth-4 readahead must reproduce the
# prefetch-off reference hash and loss bit-for-bit.
for ingest in materialize streaming; do
  check_combo series "$ingest" delta 4
done

# Traced combo: one series/streaming run with the observability section
# set, temporal selection on, and a 2-worker sampling pool, so the trace
# carries all four orchestrator stage spans plus store/codec/pool events.
# The emitted Chrome trace is validated structurally by trace_check.py.
echo "=== traced combo: series/streaming + temporal + observability"
traced_cfg="$workdir/case_traced.yaml"
write_cfg "$traced_cfg" series streaming delta 2
cat >> "$traced_cfg" <<EOF

temporal:
  num_snapshots: 2

observability:
  trace_path: $workdir/run.trace.json
  metrics_path: $workdir/run.metrics.json
EOF
traced_out=$("$BIN" "$traced_cfg")
echo "$traced_out" | grep -E "sample set hash|trace written|metrics written"
echo "$traced_out" | grep -q "case metrics:"
echo "$traced_out" | grep -q "metrics summary:"
[[ -s "$workdir/run.metrics.json" ]]
if command -v python3 > /dev/null 2>&1; then
  python3 "$(dirname "$0")/trace_check.py" "$workdir/run.trace.json" \
    --require-span case.run --require-span case.ingest \
    --require-span case.selection --require-span case.sampling \
    --require-span case.training --require-span store.append \
    --require-span store.load_chunk --require-span codec.encode \
    --require-span codec.decode --require-span pool.task \
    --require-cat case --require-cat store --require-cat codec \
    --require-cat pool
else
  echo "    (python3 not found; trace structural check skipped)"
fi

# Inference combo: the OF2D LSTM drag surrogate trained end-to-end, then
# the post-training surrogate stage — compile to an infer::Engine,
# parity-check, magnitude-prune under the configured RMS budget, and
# persist. Asserts compile parity, that pruning actually removed hidden
# channels while honoring its probe-RMS budget (prune() guarantees
# final_rms <= budget; the 0.2 budget is sized so this tiny 3-epoch model
# accepts a few channels rather than refusing outright), and that the
# saved engine file exists.
echo "=== inference combo: OF2D lstm -> compile -> prune -> predict"
infer_cfg="$workdir/case_infer.yaml"
prune_budget=0.2
cat > "$infer_cfg" <<EOF
shared:
  dataset: OF2D
  scale: 0.5
  seed: 3

subsample:
  method: random
  num_samples: 24

train:
  arch: lstm
  epochs: 3
  batch: 8
  dim: 16
  window: 3

inference:
  prune_rms: $prune_budget
  probes: 16
  engine_path: $workdir/drag.engine
EOF
infer_out=$("$BIN" "$infer_cfg")
echo "$infer_out" | grep -E "inference engine|inference parity|inference pruned:|inference engine written"
echo "$infer_out" | grep -q "Evaluation on test set"
parity=$(echo "$infer_out" | sed -n 's/^inference parity rms: \([^ ]*\) .*/\1/p')
hidden0=$(echo "$infer_out" | sed -n 's/^inference pruned: hidden \([0-9]*\) -> .*/\1/p')
hidden1=$(echo "$infer_out" | sed -n 's/^inference pruned: hidden [0-9]* -> \([0-9]*\) |.*/\1/p')
pruned_rms=$(echo "$infer_out" | sed -n 's/^inference pruned: .* rms \([^ ]*\) |.*/\1/p')
if [[ -z "$parity" || -z "$hidden0" || -z "$hidden1" || -z "$pruned_rms" ]]; then
  echo "error: inference stage lines missing from output" >&2
  exit 1
fi
python3 - "$parity" "$hidden0" "$hidden1" "$pruned_rms" "$prune_budget" <<'EOF'
import sys
parity, hidden0, hidden1, pruned_rms, budget = (float(v) for v in sys.argv[1:6])
assert parity <= 1e-6, f"engine parity {parity} above 1e-6 RMS"
assert hidden1 < hidden0, f"pruning removed no channels ({hidden0:g} -> {hidden1:g})"
assert pruned_rms <= budget, \
    f"pruned engine rms {pruned_rms} above the {budget} budget"
print(f"    parity rms {parity:g}; pruned hidden {hidden0:g} -> {hidden1:g}, "
      f"rms {pruned_rms:g} <= budget {budget:g}")
EOF
[[ -s "$workdir/drag.engine" ]] || { echo "error: engine file missing" >&2; exit 1; }

echo
echo "OK: all $runs backend x ingest x codec combinations bit-identical"
echo "    sample set hash: $ref_hash"
echo "    test loss:       $ref_loss"
