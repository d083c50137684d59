#!/usr/bin/env bash
# Multi-process smoke: two probesim-shardd workers + a routing
# probesim-server answer exactly what a single-process server answers.
#
# Starts (on localhost):
#   - probesim-shardd -index 0 -group 2   (shards 0,2,4,...)
#   - probesim-shardd -index 1 -group 2   (shards 1,3,5,...)
#   - probesim-server -workers ...        (routing tier, no local graph)
#   - probesim-server -shards ...         (single-process reference)
# then diffs /topk and /single-source responses byte for byte, writes an
# edge through both write planes, and diffs again. A second, larger
# fleet runs the same diff between full-copy and -shard-local workers
# and asserts the shard-local workers' resident memory actually shrank.
set -euo pipefail
cd "$(dirname "$0")/.."

W0=19301 W1=19302 ROUTED=19303 SINGLE=19304
BF0=19305 BF1=19306 BS0=19307 BS1=19308 RFULL=19309 RSCOPED=19310
TMP="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

wait_tcp() { # host port
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/$1/$2") 2>/dev/null; then exec 3>&-; return 0; fi
    sleep 0.1
  done
  echo "timed out waiting for $1:$2" >&2
  return 1
}

echo "== building"
go build -o "$TMP/bin/" ./cmd/gengraph ./cmd/probesim-shardd ./cmd/probesim-server

echo "== generating graph"
"$TMP/bin/gengraph" -type pa -n 2000 -deg 6 -seed 4 -o "$TMP/g.txt"

echo "== starting workers"
"$TMP/bin/probesim-shardd" -graph "$TMP/g.txt" -shards 16 -index 0 -group 2 -addr "127.0.0.1:$W0" &
PIDS+=($!)
"$TMP/bin/probesim-shardd" -graph "$TMP/g.txt" -shards 16 -index 1 -group 2 -addr "127.0.0.1:$W1" &
PIDS+=($!)
wait_tcp 127.0.0.1 "$W0"
wait_tcp 127.0.0.1 "$W1"

echo "== starting servers"
# Semicolon = two single-replica shard groups (comma would mean two
# replicas of ONE group under the replicated -workers grammar).
"$TMP/bin/probesim-server" -workers "127.0.0.1:$W0;127.0.0.1:$W1" -addr "127.0.0.1:$ROUTED" -epsa 0.3 &
PIDS+=($!)
"$TMP/bin/probesim-server" -graph "$TMP/g.txt" -shards 16 -addr "127.0.0.1:$SINGLE" -epsa 0.3 &
PIDS+=($!)
wait_tcp 127.0.0.1 "$ROUTED"
wait_tcp 127.0.0.1 "$SINGLE"
# The HTTP listener accepts before handlers warm; confirm /stats serves.
for port in "$ROUTED" "$SINGLE"; do
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$port/stats" >/dev/null && break
    sleep 0.1
  done
done

check() { # portA portB path
  curl -sf "http://127.0.0.1:$1$3" >"$TMP/a.json"
  curl -sf "http://127.0.0.1:$2$3" >"$TMP/b.json"
  if ! diff -u "$TMP/a.json" "$TMP/b.json"; then
    echo "MISMATCH on $3 (:$1 vs :$2)" >&2
    exit 1
  fi
  echo "   match: $3"
}

echo "== comparing query answers (routed vs single-process)"
check "$SINGLE" "$ROUTED" "/topk?u=7&k=10"
check "$SINGLE" "$ROUTED" "/topk?u=1999&k=5"
check "$SINGLE" "$ROUTED" "/single-source?u=42"
check "$SINGLE" "$ROUTED" "/pair?u=7&v=9"

echo "== writing an edge through both write planes"
curl -sf -X POST "http://127.0.0.1:$ROUTED/edges?u=3&v=1998" >/dev/null
curl -sf -X POST "http://127.0.0.1:$SINGLE/edges?u=3&v=1998" >/dev/null
check "$SINGLE" "$ROUTED" "/topk?u=3&k=10"

echo "== end-to-end query trace"
# ?trace=1 must come back with the trace id on the response header AND
# inlined spans that include at least one worker-side span grafted from
# a shardd reply — proof the trace context crossed the RPC wire. A warm
# view answers entirely router-side (zero worker read RPCs), so write
# an edge first: the traced query then lands on a cold generation and
# must delegate to the workers (batched shard fetches and/or walks).
curl -sf -X POST "http://127.0.0.1:$ROUTED/edges?u=5&v=1997" >/dev/null
curl -sf -X POST "http://127.0.0.1:$SINGLE/edges?u=5&v=1997" >/dev/null
TRACE_HDRS="$TMP/trace-headers"
TRACE="$(curl -sf -D "$TRACE_HDRS" "http://127.0.0.1:$ROUTED/topk?u=11&k=5&trace=1")"
HDR_ID="$(tr -d '\r' <"$TRACE_HDRS" | awk -F': ' 'tolower($1)=="x-probesim-trace-id"{print $2}')"
if [ -z "$HDR_ID" ]; then
  echo "traced query missing X-ProbeSim-Trace-Id response header" >&2
  exit 1
fi
echo "$TRACE" | grep -q "\"traceId\":\"$HDR_ID\"" || {
  echo "traced response body id does not match header id $HDR_ID" >&2
  exit 1
}
echo "$TRACE" | grep -Eq '"name":"worker\.(resolve_shards|walk_batch)"' || {
  echo "traced response has no worker-side span (resolve/walk)" >&2
  exit 1
}
echo "   trace $HDR_ID stitched across router and workers"

echo "== router observability"
# Capture, THEN grep: `curl | grep -q` under pipefail dies of SIGPIPE
# when grep quits at the first match before curl finishes writing.
METRICS="$(curl -sf "http://127.0.0.1:$ROUTED/metrics")"
echo "$METRICS" | grep -q 'probesim_router_worker_up{worker="127.0.0.1:' || {
  echo "routed /metrics missing per-worker gauges" >&2
  exit 1
}
echo "$METRICS" | grep -Eq 'probesim_router_shard_batches_total [1-9]' || {
  echo "routed /metrics shows no batched shard fetches" >&2
  exit 1
}
echo "$METRICS" | grep -Eq 'probesim_router_walk_local_segments_total [1-9]' || {
  echo "routed /metrics shows no router-side walk stepping" >&2
  exit 1
}
STATS="$(curl -sf "http://127.0.0.1:$ROUTED/stats")"
echo "$STATS" | grep -q 'routerWorkers' || {
  echo "routed /stats missing routerWorkers" >&2
  exit 1
}

echo "== shard-local fleet (larger graph)"
"$TMP/bin/gengraph" -type pa -n 240000 -deg 10 -seed 9 -o "$TMP/big.txt"
"$TMP/bin/probesim-shardd" -graph "$TMP/big.txt" -shards 16 -index 0 -group 2 -addr "127.0.0.1:$BF0" &
FULL_PID=$!; PIDS+=($!)
"$TMP/bin/probesim-shardd" -graph "$TMP/big.txt" -shards 16 -index 1 -group 2 -addr "127.0.0.1:$BF1" &
PIDS+=($!)
"$TMP/bin/probesim-shardd" -graph "$TMP/big.txt" -shards 16 -index 0 -group 2 -shard-local -addr "127.0.0.1:$BS0" &
SCOPED_PID=$!; PIDS+=($!)
"$TMP/bin/probesim-shardd" -graph "$TMP/big.txt" -shards 16 -index 1 -group 2 -shard-local -addr "127.0.0.1:$BS1" &
PIDS+=($!)
for port in "$BF0" "$BF1" "$BS0" "$BS1"; do wait_tcp 127.0.0.1 "$port"; done

echo "== shard-local worker memory"
# A -shard-local worker holds adjacency only for its owned stride; its
# resident set at boot must sit well below a full-copy worker's on the
# same graph. (Measured before any query: serving allocations — walk
# buffers, span materialization — are per-query and identical for both
# worker kinds, and would drown the boot-time footprint. The runtime
# floor keeps the ratio from reaching a clean 1/2, so assert <= 85%.)
rss() { awk '/VmRSS/{print $2}' "/proc/$1/status"; }
FULL_RSS="$(rss "$FULL_PID")"
SCOPED_RSS="$(rss "$SCOPED_PID")"
echo "   full-copy worker VmRSS=${FULL_RSS}kB shard-local worker VmRSS=${SCOPED_RSS}kB"
if [ $((SCOPED_RSS * 100)) -ge $((FULL_RSS * 85)) ]; then
  echo "shard-local worker RSS did not shrink (${SCOPED_RSS}kB vs ${FULL_RSS}kB full)" >&2
  exit 1
fi

"$TMP/bin/probesim-server" -workers "127.0.0.1:$BF0;127.0.0.1:$BF1" -addr "127.0.0.1:$RFULL" -epsa 0.3 &
PIDS+=($!)
"$TMP/bin/probesim-server" -workers "127.0.0.1:$BS0;127.0.0.1:$BS1" -addr "127.0.0.1:$RSCOPED" -epsa 0.3 &
PIDS+=($!)
wait_tcp 127.0.0.1 "$RFULL"
wait_tcp 127.0.0.1 "$RSCOPED"

echo "== comparing query answers (shard-local vs full-copy workers)"
check "$RFULL" "$RSCOPED" "/topk?u=5&k=10"
check "$RFULL" "$RSCOPED" "/single-source?u=123"
check "$RFULL" "$RSCOPED" "/pair?u=5&v=77"
curl -sf -X POST "http://127.0.0.1:$RFULL/edges?u=9&v=239999" >/dev/null
curl -sf -X POST "http://127.0.0.1:$RSCOPED/edges?u=9&v=239999" >/dev/null
check "$RFULL" "$RSCOPED" "/topk?u=9&k=10"

echo "== multi-process smoke PASSED"
