#!/usr/bin/env bash
# Load smoke: the tenant-aware SLO plane end to end, through real
# processes and real load.
#
# Boots a replicated worker pair (one replica set of two workers)
# behind a routing probesim-server with two tenants armed —
# search=latency-strict, crawl=throughput-batch — and tight admission
# (-max-inflight 4, -soft-inflight 2). probesim-loadgen then replays a
# seeded scenario where the batch tenant saturates the server (8
# zero-think workers, bursty write churn, slow clients) while the
# latency-strict tenant runs its interactive mix with an
# X-ProbeSim-Max-Epsa accuracy floor. One worker replica is kill -9'd
# MID-RUN, so the read plane's failover is part of the measured window.
#
# The pass criteria are the PR's acceptance properties:
#   - the latency-strict tenant still admits (no rejections), meets its
#     p99 objective, and is NEVER served a degraded answer;
#   - the loadgen JSON report carries per-tenant achieved-vs-objective
#     fields, asserted via -assert exit-code contracts;
#   - /metrics exports the tenant-labeled admission and SLO burn
#     families, and both binaries export probesim_build_info.
set -euo pipefail
cd "$(dirname "$0")/.."

W0=19501 W1=19502 SRV=19503 H0=19504
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
go build -o "$TMP/bin/" ./cmd/gengraph ./cmd/probesim-shardd ./cmd/probesim-server ./cmd/probesim-loadgen

echo "== generating graph"
"$TMP/bin/gengraph" -type pa -n 2000 -deg 6 -seed 4 -o "$TMP/g.txt"

echo "== starting replicated workers (one replica set of two)"
"$TMP/bin/probesim-shardd" -graph "$TMP/g.txt" -shards 16 \
  -addr "127.0.0.1:$W0" -health-addr "127.0.0.1:$H0" &
VICTIM=$!; PIDS+=($!)
"$TMP/bin/probesim-shardd" -graph "$TMP/g.txt" -shards 16 \
  -addr "127.0.0.1:$W1" &
PIDS+=($!)
wait_tcp 127.0.0.1 "$W0"
wait_tcp 127.0.0.1 "$W1"
wait_tcp 127.0.0.1 "$H0"

echo "== worker build info"
curl -sf "http://127.0.0.1:$H0/metrics" | grep -q 'probesim_build_info{binary="probesim-shardd"' || {
  echo "shardd /metrics missing probesim_build_info" >&2
  exit 1
}

echo "== starting tenant-armed routing server"
# Two workers of one replica set, so the mid-run kill below is a
# failover event, not an outage.
"$TMP/bin/probesim-server" -workers "127.0.0.1:$W0,127.0.0.1:$W1" -addr "127.0.0.1:$SRV" \
  -epsa 0.3 -max-inflight 4 -soft-inflight 2 -health-interval 500ms \
  -tenants "search=latency-strict,crawl=throughput-batch" \
  -slo "search=750ms:0.95,crawl=5s:0.5" &
PIDS+=($!)
wait_tcp 127.0.0.1 "$SRV"
for _ in $(seq 1 50); do
  curl -sf "http://127.0.0.1:$SRV/stats" >/dev/null && break
  sleep 0.1
done

echo "== replaying the saturation scenario (worker killed mid-run)"
# The batch tenant saturates (zero think, write bursts, slow clients);
# the strict tenant must ride the fair queue unharmed. Assertions are
# exit-code contracts: latency-strict p99 under its objective, zero
# unrequested degradations, zero rejections, and both tenants actually
# generated load.
"$TMP/bin/probesim-loadgen" -target "http://127.0.0.1:$SRV" -seed 7 -duration 8s -nodes 2000 \
  -mix "search,workers=2,think=1ms,maxepsa=0.3" \
  -mix "crawl,workers=8,think=0,writes=0.05,burst=4,slow=0.05" \
  -slo "search=750ms:0.95,crawl=5s:0.5" \
  -out "$TMP/report.json" \
  -assert "search.p99<=750ms" \
  -assert "search.degraded==0" \
  -assert "search.rejected==0" \
  -assert "search.transport_errors==0" \
  -assert "search.availability>=0.95" \
  -assert "search.requests>=200" \
  -assert "crawl.requests>=200" &
LG=$!
sleep 3
echo "   kill -9 worker replica $VICTIM"
kill -9 "$VICTIM"
wait "$LG"
cat "$TMP/report.json"

echo "== per-tenant SLO plane on /metrics"
METRICS="$(curl -sf "http://127.0.0.1:$SRV/metrics")"
echo "$METRICS" | grep -Eq 'probesim_tenant_admitted_total\{tenant="search",class="latency-strict"\} [1-9]' || {
  echo "/metrics missing the strict tenant's admission counter" >&2
  exit 1
}
echo "$METRICS" | grep -q 'probesim_slo_error_budget_burn_ratio{tenant="search"}' || {
  echo "/metrics missing the per-tenant SLO burn gauge" >&2
  exit 1
}
echo "$METRICS" | grep -q 'probesim_build_info{binary="probesim-server"' || {
  echo "server /metrics missing probesim_build_info" >&2
  exit 1
}

echo "== load smoke PASSED"
