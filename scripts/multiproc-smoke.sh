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
# edge through both write planes, and diffs again.
set -euo pipefail
cd "$(dirname "$0")/.."

W0=19301 W1=19302 ROUTED=19303 SINGLE=19304
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

shard_fetches() {
  curl -sf "http://127.0.0.1:$ROUTED/metrics" | awk '$1 == "probesim_router_shard_fetches_total" { print $2 }'
}

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
# must fetch its shard blocks from the workers.
FETCHES_BEFORE_WRITE="$(shard_fetches)"
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
echo "$TRACE" | grep -q '"name":"worker\.resolve_shards"' || {
  echo "traced response has no worker-side resolve_shards span" >&2
  exit 1
}
echo "   trace $HDR_ID stitched across router and workers"
# The new generation carried every block the write left unchanged, so
# the traced read fetched only the shards of u=5 and v=1997 (one or two
# of the 16), not every block.
WRITE_FETCHES=$(( $(shard_fetches) - FETCHES_BEFORE_WRITE ))
if [ "$WRITE_FETCHES" -lt 1 ] || [ "$WRITE_FETCHES" -gt 2 ]; then
  echo "the read after a one-edge write fetched $WRITE_FETCHES shard blocks, want 1-2 (the shards of u and v)" >&2
  exit 1
fi
echo "   the read after a one-edge write fetched $WRITE_FETCHES shard blocks"

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
# The traced query fetched the new generation's blocks, so another read
# on it must run on them with no fetch at all. (A source the result
# cache has not seen, so the kernel really runs.)
FETCHES="$(shard_fetches)"
check "$SINGLE" "$ROUTED" "/topk?u=13&k=5"
if [ "$(shard_fetches)" != "$FETCHES" ]; then
  echo "warm read fetched shard blocks: probesim_router_shard_fetches_total moved from $FETCHES" >&2
  exit 1
fi
STATS="$(curl -sf "http://127.0.0.1:$ROUTED/stats")"
echo "$STATS" | grep -q 'routerWorkers' || {
  echo "routed /stats missing routerWorkers" >&2
  exit 1
}

echo "== multi-process smoke PASSED"
