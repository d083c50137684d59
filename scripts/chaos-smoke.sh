#!/usr/bin/env bash
# Chaos smoke: a 2-group x 2-replica worker fleet keeps answering —
# byte-identically to an uninterrupted single-process reference — while
# one replica per group is kill -9'd, restarted from its data dir, and
# replayed back in; then the OTHER replica of each group is killed so
# every answer must come from the replicas that just caught up.
#
# Failover is asserted on a second, read-only router booted just before
# that last kill: it has fetched no shard blocks and its health loop
# never ticks, so its first read must fetch every block from replicas it
# still believes healthy and fail over from each dead one. (The main
# router cannot show this deterministically: a warm view answers with
# no read RPCs, and its writes and health ticks demote the dead replicas
# before any cold read reaches them.)
#
# Topology (all on localhost):
#   group 0: shardd -index 0 (replicas A0, A1)   shards 0,2,4,...
#   group 1: shardd -index 1 (replicas B0, B1)   shards 1,3,5,...
#   probesim-server -workers "A0,A1;B0,B1"       (routing tier)
#   probesim-server -workers "A0,A1;B0,B1"       (read-only failover probe)
#   probesim-server -shards ...                  (single-process reference)
set -euo pipefail
cd "$(dirname "$0")/.."

A0=19401 A1=19402 B0=19403 B1=19404 ROUTED=19405 SINGLE=19406 HEALTH=19407 PROBE=19408
FLEET="127.0.0.1:$A0,127.0.0.1:$A1;127.0.0.1:$B0,127.0.0.1:$B1"
TMP="$(mktemp -d)"
declare -A PID
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
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

start_worker() { # name port index extra...
  local name=$1 port=$2 index=$3; shift 3
  "$TMP/bin/probesim-shardd" -graph "$TMP/g.txt" -shards 16 -index "$index" -group 2 \
    -addr "127.0.0.1:$port" -data-dir "$TMP/data-$name" -fsync always "$@" &
  PID[$name]=$!
  PIDS+=($!)
  wait_tcp 127.0.0.1 "$port"
}

echo "== building"
go build -o "$TMP/bin/" ./cmd/gengraph ./cmd/probesim-shardd ./cmd/probesim-server

echo "== generating graph"
"$TMP/bin/gengraph" -type pa -n 2000 -deg 6 -seed 4 -o "$TMP/g.txt"

echo "== starting 2x2 worker fleet"
start_worker a0 "$A0" 0 -health-addr "127.0.0.1:$HEALTH"
start_worker a1 "$A1" 0
start_worker b0 "$B0" 1
start_worker b1 "$B1" 1

echo "== starting servers"
"$TMP/bin/probesim-server" -workers "$FLEET" \
  -addr "127.0.0.1:$ROUTED" -epsa 0.3 -health-interval 250ms -hedge-max 50ms &
PIDS+=($!)
"$TMP/bin/probesim-server" -graph "$TMP/g.txt" -shards 16 -addr "127.0.0.1:$SINGLE" -epsa 0.3 &
PIDS+=($!)
wait_tcp 127.0.0.1 "$ROUTED"
wait_tcp 127.0.0.1 "$SINGLE"
for port in "$ROUTED" "$SINGLE"; do
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$port/stats" >/dev/null && break
    sleep 0.1
  done
done

check() { # path [router port]  (strict: one request, no client retry)
  curl -sf "http://127.0.0.1:${2:-$ROUTED}$1" >"$TMP/routed.json"
  curl -sf "http://127.0.0.1:$SINGLE$1" >"$TMP/single.json"
  if ! diff -u "$TMP/single.json" "$TMP/routed.json"; then
    echo "MISMATCH on $1" >&2
    exit 1
  fi
  echo "   match: $1"
}

check_retry() { # path  (one in-flight retry allowed right after a kill)
  if ! curl -sf "http://127.0.0.1:$ROUTED$1" >/dev/null 2>&1; then
    echo "   (retrying $1 once after kill)"
    sleep 1
  fi
  check "$1"
}

write_both() { # u v
  curl -sf -X POST "http://127.0.0.1:$ROUTED/edges?u=$1&v=$2" >/dev/null
  curl -sf -X POST "http://127.0.0.1:$SINGLE/edges?u=$1&v=$2" >/dev/null
}

wait_all_current() { # n
  for _ in $(seq 1 200); do
    cur="$(curl -sf "http://127.0.0.1:$ROUTED/stats" | grep -o '"current":true' | wc -l)"
    [ "$cur" -eq "$1" ] && return 0
    sleep 0.2
  done
  echo "fleet never returned to $1 current replicas" >&2
  curl -sf "http://127.0.0.1:$ROUTED/stats" >&2 || true
  return 1
}

echo "== probes"
curl -sf "http://127.0.0.1:$HEALTH/healthz" | grep -q ok
curl -sf "http://127.0.0.1:$HEALTH/readyz" | grep -q ready
curl -sf "http://127.0.0.1:$ROUTED/readyz" | grep -q ready

echo "== baseline (all replicas up)"
check "/topk?u=7&k=10"
check "/single-source?u=42"
check "/pair?u=7&v=9"

echo "== kill -9 one replica per group (a1, b1)"
kill -9 "${PID[a1]}" "${PID[b1]}"
check_retry "/topk?u=7&k=10"
check "/single-source?u=42"
write_both 3 1998
check "/topk?u=3&k=10"
write_both 11 1500
check "/topk?u=11&k=10"

echo "== restart killed replicas from their data dirs"
start_worker a1 "$A1" 0
start_worker b1 "$B1" 1
wait_all_current 4
echo "   all 4 replicas current again"

echo "== booting a read-only failover probe router (never writes; health ticks hourly)"
# It must never write: two routers writing to one fleet would both
# assign batch ids.
"$TMP/bin/probesim-server" -workers "$FLEET" \
  -addr "127.0.0.1:$PROBE" -epsa 0.3 -health-interval 1h &
PIDS+=($!)
wait_tcp 127.0.0.1 "$PROBE"
# /readyz, not /stats: /stats computes every node's degree, which would
# fetch every shard block before the kill.
curl -sf "http://127.0.0.1:$PROBE/readyz" | grep -q ready

echo "== kill -9 the surviving originals (a0, b0): answers must come from the caught-up replicas"
kill -9 "${PID[a0]}" "${PID[b0]}"
echo "   probe router: first cold read fails over from a0 and b0"
check "/topk?u=7&k=10" "$PROBE"
check_retry "/topk?u=7&k=10"
check "/topk?u=3&k=10"
check "/topk?u=11&k=10"
check "/single-source?u=42"
write_both 5 1234
check "/topk?u=5&k=10"

echo "== failover / catch-up observability"
METRICS="$(curl -sf "http://127.0.0.1:$ROUTED/metrics")"
echo "$METRICS" | grep -q 'probesim_router_worker_current{worker="127.0.0.1:' || {
  echo "missing per-replica currency gauge" >&2; exit 1
}
failovers="$(curl -sf "http://127.0.0.1:$PROBE/metrics" | awk '/^probesim_router_failovers_total/ {print $2}')"
catchup="$(echo "$METRICS" | awk '/^probesim_router_catchup_batches_total/ {print $2}')"
[ "${failovers:-0}" -gt 0 ] || { echo "no failovers recorded ($failovers)" >&2; exit 1; }
[ "${catchup:-0}" -gt 0 ] || { echo "no ring catch-up recorded ($catchup)" >&2; exit 1; }
echo "   failovers=$failovers catchup_batches=$catchup"

echo "== chaos smoke PASSED"
