#!/usr/bin/env bash
# Server smoke: build tedd, start it on a fixture corpus, query
# /v1/distance and /v1/join over real HTTP, and assert the answers match
# the offline cmd/ted output on the same trees. Exercises the whole
# serving stack — corpus codec, WAL-attached Open, warm-up, admission,
# JSON marshalling — then drives short tedload workloads, which exit
# nonzero on any wrong HTTP answer, and finishes with the graceful
# SIGTERM drain.
#
# Run from the repository root: ./scripts/server_smoke.sh
set -euo pipefail

WORK="$(mktemp -d)"
PORT="${TEDD_PORT:-8423}"
BASE="http://127.0.0.1:${PORT}"
TEDD_PID=""
cleanup() {
  [ -n "$TEDD_PID" ] && kill "$TEDD_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== fixture"
go run ./cmd/tedgen -shape random -size 60 -count 24 -labels 12 -seed 7 > "$WORK/trees.txt"
go run ./cmd/tedgen -shape random -size 60 -count 24 -labels 12 -seed 8 >> "$WORK/trees.txt"

echo "== offline join (cmd/ted) + corpus build"
go run ./cmd/ted -join -tau 25 -index histogram -corpus-save "$WORK/trees.tedc" "$WORK/trees.txt" \
  | grep -v '^#' | sort -n > "$WORK/offline.join"

T1="$(sed -n 1p "$WORK/trees.txt")"
T2="$(sed -n 2p "$WORK/trees.txt")"
OFFLINE_DIST="$(go run ./cmd/ted -e "$T1" -e "$T2")"

echo "== start tedd"
go build -o "$WORK/tedd" ./cmd/tedd
"$WORK/tedd" -corpus "$WORK/trees.tedc" -addr "127.0.0.1:${PORT}" &
TEDD_PID=$!
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" > /dev/null 2>&1; then break; fi
  if ! kill -0 "$TEDD_PID" 2>/dev/null; then echo "tedd died during startup"; exit 1; fi
  sleep 0.2
done
curl -sf "$BASE/healthz" > /dev/null || { echo "tedd never became healthy"; exit 1; }

echo "== /v1/distance vs offline"
SERVED_DIST="$(curl -sf -X POST "$BASE/v1/distance" \
  -H 'Content-Type: application/json' \
  -d "$(jq -cn --arg f "$T1" --arg g "$T2" '{f: {tree: $f}, g: {tree: $g}}')" \
  | jq -r .dist)"
if [ "$SERVED_DIST" != "$OFFLINE_DIST" ]; then
  echo "distance mismatch: served $SERVED_DIST, offline $OFFLINE_DIST"
  exit 1
fi
echo "   distance $SERVED_DIST == offline"

echo "== /v1/join vs offline"
curl -sf -X POST "$BASE/v1/join" -H 'Content-Type: application/json' \
  -d '{"tau": 25, "mode": "histogram", "limit": 100000}' \
  | jq -r '.matches[] | "\(.i)\t\(.j)\t\(.dist)"' | sort -n > "$WORK/served.join"
if ! diff -u "$WORK/offline.join" "$WORK/served.join"; then
  echo "join mismatch between tedd and cmd/ted"
  exit 1
fi
echo "   $(wc -l < "$WORK/served.join") matches identical"

echo "== /v1/join/stream vs buffered"
curl -sfN -X POST "$BASE/v1/join/stream" -H 'Content-Type: application/json' \
  -d '{"tau": 25, "mode": "histogram", "limit": 100000}' > "$WORK/stream.ndjson"
jq -r 'select(.match) | "\(.match.i)\t\(.match.j)\t\(.match.dist)"' "$WORK/stream.ndjson" \
  | sort -n > "$WORK/streamed.join"
if ! diff -u "$WORK/served.join" "$WORK/streamed.join"; then
  echo "streamed join differs from the buffered one"
  exit 1
fi
DONE_COUNT="$(jq -r 'select(.done) | .done.count' "$WORK/stream.ndjson")"
if [ "$DONE_COUNT" != "$(wc -l < "$WORK/streamed.join")" ]; then
  echo "stream done record counted $DONE_COUNT matches, saw $(wc -l < "$WORK/streamed.join")"
  exit 1
fi
echo "   $DONE_COUNT streamed matches identical, done record present"

echo "== tedload (short mixed workload; exits nonzero on any error)"
go build -o "$WORK/tedload" ./cmd/tedload
"$WORK/tedload" -url "$BASE" \
  -mix "distance=4,bounded=3,topk=2,join=0.2,mutate=1" \
  -tau 25 -k 3 -seed 1 -conc 8 -n 170

echo "== two-tenant mix (streamed joiner vs point lookups)"
"$WORK/tedload" -url "$BASE" -tenant batch -mix "join_stream=0.5,topk_stream=2" \
  -tau 25 -k 3 -seed 3 -conc 4 -n 65 &
LOAD_PID=$!
"$WORK/tedload" -url "$BASE" -tenant web -mix "distance=1" \
  -tau 25 -seed 4 -conc 4 -n 65
wait "$LOAD_PID"
STATS="$(curl -sf "$BASE/v1/stats")"
echo "   tenants: $(jq -c .tenants <<<"$STATS")"
jq -e '.tenants.batch.admitted > 0 and .tenants.web.admitted > 0' <<<"$STATS" > /dev/null \
  || { echo "per-tenant admission counters missing from /v1/stats"; exit 1; }

echo "== durable mutation + graceful drain"
NEW_ID="$(curl -sf -X POST "$BASE/v1/trees" -H 'Content-Type: application/json' \
  -d "$(jq -cn --arg t "$T1" '{tree: $t}')" | jq -r .id)"
STATS="$(curl -sf "$BASE/v1/stats")"
echo "   stats: $STATS"
kill -TERM "$TEDD_PID"
wait "$TEDD_PID"
TEDD_PID=""

echo "== restart serves the mutated corpus"
"$WORK/tedd" -corpus "$WORK/trees.tedc" -addr "127.0.0.1:${PORT}" &
TEDD_PID=$!
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.2
done
GOT="$(curl -sf "$BASE/v1/trees/$NEW_ID" | jq -r .tree)"
if [ "$GOT" != "$T1" ]; then
  echo "mutated tree $NEW_ID did not survive the restart"
  exit 1
fi
kill -TERM "$TEDD_PID"; wait "$TEDD_PID"; TEDD_PID=""

echo "server smoke: OK"
