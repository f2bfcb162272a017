#!/usr/bin/env bash
# End-to-end smoke for sickle-serve: start the daemon, push 8 concurrent
# cases through tools/serve_client.py, and verify
#   1. every daemon-returned sample_hash equals the hash sickle_train
#      prints for the same config (the daemon is a transport, not a
#      numerics fork),
#   2. the metrics verb reports all submissions and the shared cache,
#   3. a submit with `scale: 1e5` or `scale: 2e17` (grid extents past
#      2^20) gets a typed `config` rejection with an issue on shared.scale
#      and the daemon serves on; one naming an unknown point sampler
#      (`method: maxnet`) gets one with an issue on subsample.method, one
#      naming `arch: lstm` (the drag surrogate, which a case cannot train)
#      one on train.arch, and `heads: 3` with the case's `dim: 8` one on
#      train.heads, all before any snapshot is generated,
#   4. a 2 MiB request with no newline gets a typed `protocol` rejection
#      (the daemon's request-line limit is 1 MiB) and the next connection
#      is served normally,
#   5. SIGTERM shuts the daemon down cleanly (exit 0, farewell line).
#
# Usage: tools/e2e_serve.sh [path/to/sickle_serve] [path/to/sickle_train]
# Local repro:  cmake -B build -S . && cmake --build build -j
#               tools/e2e_serve.sh build/sickle_serve build/sickle_train
set -euo pipefail

SERVE_BIN=${1:-build/sickle_serve}
TRAIN_BIN=${2:-build/sickle_train}
CLIENT="$(dirname "$0")/serve_client.py"
for bin in "$SERVE_BIN" "$TRAIN_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin is not an executable" >&2
    exit 2
  fi
done

workdir=$(mktemp -d)
serve_pid=""
cleanup() {
  [[ -n "$serve_pid" ]] && kill -9 "$serve_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# Tiny case per seed; the `server:` section only matters for the daemon
# invocation (sickle_train ignores it).
write_cfg() {
  local cfg=$1 seed=$2
  cat > "$cfg" <<EOF
shared:
  dataset: SST-P1F4
  scale: 0.25
  seed: $seed

subsample:
  hypercubes: random
  method: maxent
  num_hypercubes: 2
  num_samples: 17
  num_clusters: 3
  nxsl: 8
  nysl: 8
  nzsl: 8

store:
  backend: series
  ingest: streaming
  codec: delta
  chunk: 16
  write_budget_mb: 1
  spill_dir: $workdir/spill

train:
  arch: MLP_transformer
  epochs: 1
  batch: 4
  dim: 8
  heads: 2

server:
  port: 0
  max_concurrent_cases: 4
  queue_capacity: 32
EOF
}

NUM_CASES=8
NUM_SEEDS=4
for seed in $(seq 0 $((NUM_SEEDS - 1))); do
  write_cfg "$workdir/case_$seed.yaml" "$seed"
done

echo "=== starting daemon"
"$SERVE_BIN" "$workdir/case_0.yaml" > "$workdir/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 50); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "$workdir/serve.log")
  [[ -n "$port" ]] && break
  sleep 0.1
done
if [[ -z "$port" ]]; then
  echo "error: daemon never printed its port" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
echo "daemon pid $serve_pid on port $port"

echo "=== submitting $NUM_CASES concurrent cases"
pids=()
for i in $(seq 0 $((NUM_CASES - 1))); do
  seed=$((i % NUM_SEEDS))
  (
    sub=$(python3 "$CLIENT" --port "$port" submit \
          --config "$workdir/case_$seed.yaml")
    id=$(echo "$sub" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
    res=$(python3 "$CLIENT" --port "$port" result --id "$id")
    hash=$(echo "$res" | python3 -c 'import json,sys; print(json.load(sys.stdin)["sample_hash"])')
    echo "$hash" > "$workdir/hash_${i}_seed${seed}"
  ) &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done

echo "=== diffing daemon hashes against sickle_train"
for seed in $(seq 0 $((NUM_SEEDS - 1))); do
  want=$("$TRAIN_BIN" "$workdir/case_$seed.yaml" \
         | sed -n 's/^sample set hash: //p')
  for f in "$workdir"/hash_*_seed"$seed"; do
    got=$(cat "$f")
    if [[ "$got" != "$want" ]]; then
      echo "error: $(basename "$f"): daemon hash $got != run_case $want" >&2
      exit 1
    fi
  done
  echo "seed $seed: $want OK ($(ls "$workdir"/hash_*_seed"$seed" | wc -l) cases)"
done

echo "=== metrics scrape"
metrics=$(python3 "$CLIENT" --port "$port" metrics)
submitted=$(echo "$metrics" | python3 -c \
  'import json,sys; print(int(json.load(sys.stdin)["metrics"]["serve.cases_submitted"]))')
if [[ "$submitted" -ne "$NUM_CASES" ]]; then
  echo "error: metrics report $submitted submissions, expected $NUM_CASES" >&2
  exit 1
fi
echo "serve.cases_submitted = $submitted OK"

# Submit `cfg` and require a typed `config` rejection naming `field`.
# serve_client.py exits 1 on a rejection, which is the expected outcome.
expect_config_issue() {
  local what=$1 cfg=$2 field=$3 resp
  if resp=$(python3 "$CLIENT" --port "$port" submit --config "$cfg"); then
    echo "error: the daemon accepted $what: $resp" >&2
    exit 1
  fi
  echo "$resp" | python3 -c '
import json, sys
what, field = sys.argv[1:3]
resp = json.load(sys.stdin)
fields = [issue["field"] for issue in resp.get("issues", [])]
if resp.get("ok") is not False or resp.get("code") != "config" or field not in fields:
    sys.exit(f"error: {what} got {resp}, expected a config issue on {field}")
' "$what" "$field"
  echo "$what rejected at submit ($field) OK"
}

echo "=== a grid scale past the zoo's bound"
# Past scale 8192 a grid extent passes 2^20. Unbounded, 1e5 wraps the
# point count and the generator writes out of bounds (the daemon dies),
# and 2e17 never leaves the power-of-two rounding (a connection thread
# spins). Both must be rejected, and the daemon must serve every check
# below.
for scale in 1e5 2e17; do
  sed "s/^  scale: 0.25\$/  scale: $scale/" "$workdir/case_0.yaml" \
    > "$workdir/scale.yaml"
  grep -q "^  scale: $scale\$" "$workdir/scale.yaml" || {
    echo "error: the case has no 'scale: 0.25' line to change" >&2
    exit 1
  }
  expect_config_issue "scale: $scale" "$workdir/scale.yaml" shared.scale
done

echo "=== misspelled sampling method"
sed 's/^  method: maxent$/  method: maxnet/' "$workdir/case_0.yaml" \
  > "$workdir/typo.yaml"
expect_config_issue "method: maxnet" "$workdir/typo.yaml" subsample.method

echo "=== an architecture a case cannot train"
sed 's/^  arch: MLP_transformer$/  arch: lstm/' "$workdir/case_0.yaml" \
  > "$workdir/lstm.yaml"
expect_config_issue "arch: lstm" "$workdir/lstm.yaml" train.arch

echo "=== a head count that does not divide the model dim"
sed 's/^  heads: 2$/  heads: 3/' "$workdir/case_0.yaml" > "$workdir/heads.yaml"
grep -q '^  heads: 3$' "$workdir/heads.yaml" || {
  echo "error: the case has no 'heads: 2' line to change" >&2
  exit 1
}
expect_config_issue "heads: 3 with dim: 8" "$workdir/heads.yaml" train.heads

echo "=== oversized request line"
# The flood runs on a thread so the rejection is read while the daemon
# still has the connection open; the send fails once it hangs up.
python3 - "$port" <<'PY'
import json, socket, sys, threading
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=60)
def flood():
    try:
        sock.sendall(b"x" * (2 << 20))
    except OSError:
        pass
threading.Thread(target=flood, daemon=True).start()
buf = b""
while b"\n" not in buf:
    chunk = sock.recv(65536)
    if not chunk:
        sys.exit("error: daemon closed without answering the oversized line")
    buf += chunk
resp = json.loads(buf.partition(b"\n")[0])
if resp.get("ok") is not False or resp.get("code") != "protocol":
    sys.exit(f"error: oversized line got {resp}, expected a protocol error")
sock.settimeout(10)
try:
    rest = sock.recv(65536)
except ConnectionResetError:
    rest = b""
except TimeoutError:
    sys.exit("error: daemon kept the connection open after the rejection")
if rest:
    sys.exit(f"error: unexpected bytes after the rejection: {rest!r}")
print(f"2 MiB without a newline: {resp['error']} OK")
PY
# serve_client.py exits 0 only on an "ok": true response.
python3 "$CLIENT" --port "$port" metrics > /dev/null || {
  echo "error: the connection after the oversized line was not served" >&2
  exit 1
}
echo "next connection served OK"

echo "=== SIGTERM shutdown"
kill -TERM "$serve_pid"
rc=0
wait "$serve_pid" || rc=$?
serve_pid=""
if [[ "$rc" -ne 0 ]]; then
  echo "error: daemon exited $rc on SIGTERM" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
grep -q "shut down cleanly" "$workdir/serve.log" || {
  echo "error: no clean-shutdown line in the daemon log" >&2
  exit 1
}

echo
echo "e2e-serve OK: $NUM_CASES concurrent cases bit-identical, metrics"
echo "consistent, scales 1e5 and 2e17, unknown method, arch: lstm, heads: 3"
echo "and oversized line rejected, clean SIGTERM shutdown"
