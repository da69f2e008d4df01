#!/usr/bin/env bash
# Cluster smoke: the scale-out stack end to end, from the shell.
#
#   1. A tedd primary serves the corpus with a WAL; two tedd followers
#      attach with -follow, ship its checkpoint, tail the replicated
#      log, converge, refuse writes with 403, and serve a mutation made
#      on the primary after they attached.
#   2. Two tedd workers serve copies of one snapshot, and a gateway tedd
#      with -cluster-workers deals /v1/join and /v1/topk to them in
#      position ranges: its join must be identical to the offline
#      single-node `ted -join` over the same snapshot and tau, and its
#      top-k must return k matches. After one worker is killed, the
#      gateway's join must still be identical.
#   3. tedload drives a read-only mix round-robin across both followers
#      (-url a,b) and exits nonzero on any wrong HTTP answer.
#
# Run from the repository root: ./scripts/cluster_smoke.sh
set -euo pipefail

WORK="$(mktemp -d)"
PPORT="${CLUSTER_PRIMARY_PORT:-8431}"
F1PORT="${CLUSTER_F1_PORT:-8432}"
F2PORT="${CLUSTER_F2_PORT:-8433}"
GWPORT="${CLUSTER_GW_PORT:-8434}"
W1PORT="${CLUSTER_W1_PORT:-8435}"
W2PORT="${CLUSTER_W2_PORT:-8436}"
PIDS=()
cleanup() {
  for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true # let the daemons drain + checkpoint before the workdir goes
  rm -rf "$WORK" 2>/dev/null || true
}
trap cleanup EXIT

wait_http() { # wait_http URL [tries]
  local url="$1" tries="${2:-50}"
  for i in $(seq 1 "$tries"); do
    if curl -sf "$url" > /dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "never became reachable: $url"; return 1
}

echo "== fixture + offline join (cmd/ted)"
go run ./cmd/tedgen -shape random -size 60 -count 24 -labels 12 -seed 7 > "$WORK/trees.txt"
go run ./cmd/tedgen -shape random -size 60 -count 24 -labels 12 -seed 8 >> "$WORK/trees.txt"
go run ./cmd/ted -join -tau 25 -index histogram -corpus-save "$WORK/snap.tedc" "$WORK/trees.txt" \
  | grep -v '^#' | sort -n > "$WORK/offline.join"
N_TREES="$(wc -l < "$WORK/trees.txt")"

go build -o "$WORK/tedd" ./cmd/tedd
go build -o "$WORK/tedload" ./cmd/tedload
T1="$(sed -n 1p "$WORK/trees.txt")"

echo "== primary + two WAL-shipped followers"
cp "$WORK/snap.tedc" "$WORK/primary.tedc"
"$WORK/tedd" -corpus "$WORK/primary.tedc" -addr "127.0.0.1:${PPORT}" &
PIDS+=($!)
wait_http "http://127.0.0.1:${PPORT}/healthz"
for port in "$F1PORT" "$F2PORT"; do
  "$WORK/tedd" -corpus "$WORK/follower${port}.tedc" -addr "127.0.0.1:${port}" \
    -follow "http://127.0.0.1:${PPORT}" &
  PIDS+=($!)
done
for port in "$F1PORT" "$F2PORT"; do
  wait_http "http://127.0.0.1:${port}/healthz"
  for i in $(seq 1 100); do
    if curl -sf "http://127.0.0.1:${port}/v1/stats" \
      | jq -e --argjson n "$N_TREES" '.trees == $n and .read_only and (.replication.lag == 0)' > /dev/null 2>&1
    then break; fi
    if [ "$i" = 100 ]; then
      echo "follower :$port never converged: $(curl -s "http://127.0.0.1:${port}/v1/stats")"
      exit 1
    fi
    sleep 0.2
  done
  echo "   follower :$port converged at $N_TREES trees"
done

echo "== replication of a live mutation"
NEW_ID="$(curl -sf -X POST "http://127.0.0.1:${PPORT}/v1/trees" -H 'Content-Type: application/json' \
  -d "$(jq -cn --arg t "$T1" '{tree: $t}')" | jq -r .id)"
for port in "$F1PORT" "$F2PORT"; do
  for i in $(seq 1 100); do
    GOT="$(curl -sf "http://127.0.0.1:${port}/v1/trees/${NEW_ID}" 2>/dev/null | jq -r .tree || true)"
    if [ "$GOT" = "$T1" ]; then break; fi
    if [ "$i" = 100 ]; then echo "tree $NEW_ID never reached follower :$port"; exit 1; fi
    sleep 0.2
  done
  CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://127.0.0.1:${port}/v1/trees" \
    -H 'Content-Type: application/json' -d '{"tree":"{a}"}')"
  if [ "$CODE" != 403 ]; then
    echo "follower :$port accepted a write (status $CODE), want 403"
    exit 1
  fi
done
echo "   tree $NEW_ID replicated to both followers; writes refused with 403"

echo "== two tedd workers + a gateway tedd dealing ranges to them"
# Each worker serves its own copy: one corpus file (and its WAL) serves
# one tedd.
cp "$WORK/snap.tedc" "$WORK/worker1.tedc"
cp "$WORK/snap.tedc" "$WORK/worker2.tedc"
"$WORK/tedd" -corpus "$WORK/worker1.tedc" -addr "127.0.0.1:${W1PORT}" &
W1PID=$!
PIDS+=("$W1PID")
"$WORK/tedd" -corpus "$WORK/worker2.tedc" -addr "127.0.0.1:${W2PORT}" &
PIDS+=($!)
wait_http "http://127.0.0.1:${W1PORT}/healthz"
wait_http "http://127.0.0.1:${W2PORT}/healthz"
cp "$WORK/snap.tedc" "$WORK/gateway.tedc"
"$WORK/tedd" -corpus "$WORK/gateway.tedc" -addr "127.0.0.1:${GWPORT}" \
  -cluster-workers "http://127.0.0.1:${W1PORT},http://127.0.0.1:${W2PORT}" &
PIDS+=($!)
wait_http "http://127.0.0.1:${GWPORT}/healthz"

gateway_join() { # gateway_join OUT: the gateway's join, in cmd/ted's line format
  curl -sf -X POST "http://127.0.0.1:${GWPORT}/v1/join" -H 'Content-Type: application/json' \
    -d '{"tau": 25, "mode": "histogram"}' \
    | jq -r '.matches[] | "\(.i)\t\(.j)\t\(.dist)"' | sort -n > "$1"
  if ! diff -u "$WORK/offline.join" "$1"; then
    echo "gateway join over the workers diverged from offline cmd/ted"
    exit 1
  fi
}
gateway_join "$WORK/gateway.join"
echo "   gateway join: $(wc -l < "$WORK/gateway.join") matches identical to offline"

TOPK_N="$(curl -sf -X POST "http://127.0.0.1:${GWPORT}/v1/topk" -H 'Content-Type: application/json' \
  -d "$(jq -cn --arg t "$T1" '{query: {tree: $t}, k: 5}')" | jq '.matches | length')"
if [ "$TOPK_N" != 5 ]; then
  echo "gateway topk returned $TOPK_N matches, want 5"
  exit 1
fi
echo "   gateway topk returned 5 matches"

kill -9 "$W1PID"
wait "$W1PID" 2>/dev/null || true
gateway_join "$WORK/gateway-after-kill.join"
echo "   worker :$W1PORT killed; gateway join still identical to offline"

echo "== tedload round-robin over both followers"
"$WORK/tedload" -url "http://127.0.0.1:${F1PORT},http://127.0.0.1:${F2PORT}" \
  -mix "distance=4,bounded=3,topk=2" \
  -tau 25 -k 3 -seed 1 -conc 8 -n 170

echo "cluster smoke: OK"
