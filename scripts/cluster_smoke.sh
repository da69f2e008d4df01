#!/usr/bin/env bash
# Cluster smoke: the scale-out stack end to end, from the shell.
#
#   1. Two tedc workers load one snapshot; the command-line coordinator
#      (`tedc join`) partitions the similarity join over them and the
#      merged output must be byte-identical to the offline single-node
#      `ted -join -corpus-load` over the same snapshot and tau.
#   2. A tedd primary serves the corpus with a WAL; two tedd followers
#      attach with -follow, ship its checkpoint, tail the replicated
#      log, converge, refuse writes with 403, and serve a mutation made
#      on the primary after they attached.
#   3. A gateway tedd with -cluster-workers proxies /v1/join to the
#      worker fleet; its answer must also match the offline join.
#   4. tedload drives a read-only mix round-robin across both followers
#      (-url a,b) and exits nonzero on any wrong HTTP answer.
#
# Run from the repository root: ./scripts/cluster_smoke.sh
set -euo pipefail

WORK="$(mktemp -d)"
PPORT="${TEDC_PRIMARY_PORT:-8431}"
F1PORT="${TEDC_F1_PORT:-8432}"
F2PORT="${TEDC_F2_PORT:-8433}"
GWPORT="${TEDC_GW_PORT:-8434}"
W1PORT="${TEDC_W1_PORT:-7411}"
W2PORT="${TEDC_W2_PORT:-7412}"
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

wait_tcp() { # wait_tcp PORT
  local port="$1"
  for i in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then exec 3>&- 3<&-; return 0; fi
    sleep 0.2
  done
  echo "worker never listened on :$port"; return 1
}

echo "== fixture + offline join (cmd/ted)"
go run ./cmd/tedgen -shape random -size 60 -count 24 -labels 12 -seed 7 > "$WORK/trees.txt"
go run ./cmd/tedgen -shape random -size 60 -count 24 -labels 12 -seed 8 >> "$WORK/trees.txt"
go run ./cmd/ted -join -tau 25 -index histogram -corpus-save "$WORK/snap.tedc" "$WORK/trees.txt" \
  | grep -v '^#' | sort -n > "$WORK/offline.join"
N_TREES="$(wc -l < "$WORK/trees.txt")"

go build -o "$WORK/tedc" ./cmd/tedc
go build -o "$WORK/tedd" ./cmd/tedd
go build -o "$WORK/tedload" ./cmd/tedload

echo "== two workers + command-line coordinator"
"$WORK/tedc" worker -corpus "$WORK/snap.tedc" -addr "127.0.0.1:${W1PORT}" &
PIDS+=($!)
"$WORK/tedc" worker -corpus "$WORK/snap.tedc" -addr "127.0.0.1:${W2PORT}" &
PIDS+=($!)
wait_tcp "$W1PORT"; wait_tcp "$W2PORT"
WORKERS="127.0.0.1:${W1PORT},127.0.0.1:${W2PORT}"

"$WORK/tedc" join -workers "$WORKERS" -tau 25 -mode histogram \
  | grep -v '^#' | sort -n > "$WORK/cluster.join"
if ! diff -u "$WORK/offline.join" "$WORK/cluster.join"; then
  echo "clustered join diverged from offline cmd/ted"
  exit 1
fi
echo "   $(wc -l < "$WORK/cluster.join") matches identical to offline"

T1="$(sed -n 1p "$WORK/trees.txt")"
TOPK_LINES="$("$WORK/tedc" topk -workers "$WORKERS" -k 5 -query "$T1" | grep -cv '^#')"
if [ "$TOPK_LINES" != 5 ]; then
  echo "distributed topk returned $TOPK_LINES results, want 5"
  exit 1
fi
echo "   distributed topk returned 5 results"

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

echo "== gateway tedd proxying /v1/join to the worker fleet"
cp "$WORK/snap.tedc" "$WORK/gateway.tedc"
"$WORK/tedd" -corpus "$WORK/gateway.tedc" -addr "127.0.0.1:${GWPORT}" -cluster-workers "$WORKERS" &
PIDS+=($!)
wait_http "http://127.0.0.1:${GWPORT}/healthz"
curl -sf -X POST "http://127.0.0.1:${GWPORT}/v1/join" -H 'Content-Type: application/json' \
  -d '{"tau": 25, "mode": "histogram", "limit": 100000}' \
  | jq -r '.matches[] | "\(.i)\t\(.j)\t\(.dist)"' | sort -n > "$WORK/gateway.join"
if ! diff -u "$WORK/offline.join" "$WORK/gateway.join"; then
  echo "gateway join over the cluster diverged from offline cmd/ted"
  exit 1
fi
echo "   gateway join identical to offline"

echo "== tedload round-robin over both followers"
"$WORK/tedload" -url "http://127.0.0.1:${F1PORT},http://127.0.0.1:${F2PORT}" \
  -mix "distance=4,bounded=3,topk=2" \
  -tau 25 -k 3 -seed 1 -conc 8 -n 170

echo "cluster smoke: OK"
