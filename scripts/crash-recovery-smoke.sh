#!/usr/bin/env bash
# Crash-recovery smoke: a durable probesim-server killed with SIGKILL
# mid-ingest must come back from its -data-dir with every acknowledged
# batch, answering queries byte-identically to a reference process that
# ingested the same acknowledged stream uninterrupted.
#
#   1. boot a durable server (-data-dir, -fsync=always, small segments
#      so rotation + checkpointing actually run)
#   2. stream edge batches at it, recording each acknowledged body;
#      after 60, wait until a background checkpoint has landed and is
#      the only checkpoint file (it superseded the bootstrap one)
#   3. kill -9 the server mid-stream
#   4. restart it from the same -data-dir (no -graph: recovery only) and
#      check it recovered through that checkpoint, with no delta file
#   5. boot a fresh reference server and replay the acknowledged batches
#   6. byte-diff /single-source and /topk answers across both
set -euo pipefail
cd "$(dirname "$0")/.."

DURABLE=19401 REFERENCE=19402
TMP="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

wait_http() { # port
  for _ in $(seq 1 150); do
    if curl -sf "http://127.0.0.1:$1/stats" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "timed out waiting for port $1" >&2
  return 1
}

stat_field() { # port key: one integer field of the server's /stats
  curl -sf "http://127.0.0.1:$1/stats" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}

checkpoint_files() { # the data dir's checkpoint-*.ck count
  find "$TMP/data" -maxdepth 1 -name 'checkpoint-*.ck' | wc -l
}

wait_checkpoint() { # up to 10s for one background checkpoint, alone on disk
  local batch files
  for _ in $(seq 1 100); do
    batch=$(stat_field "$DURABLE" walCheckpointBatch || true)
    files=$(checkpoint_files)
    if [ "${batch:-0}" -gt 0 ] && [ "$files" -eq 1 ]; then
      echo "checkpoint through batch $batch, the only checkpoint file"
      return 0
    fi
    sleep 0.1
  done
  echo "no lone background checkpoint within 10s (walCheckpointBatch=${batch:-?}, $files checkpoint files)" >&2
  ls -la "$TMP/data" >&2
  return 1
}

echo "== building"
go build -o "$TMP/bin/" ./cmd/gengraph ./cmd/probesim-server

echo "== generating graph"
"$TMP/bin/gengraph" -type pa -n 2000 -deg 5 -seed 11 -o "$TMP/g.txt"

echo "== starting durable server"
"$TMP/bin/probesim-server" -graph "$TMP/g.txt" -shards 8 \
  -data-dir "$TMP/data" -fsync always -checkpoint-every 8 -segment-bytes 4096 \
  -addr "127.0.0.1:$DURABLE" -epsa 0.3 &
SRV=$!
PIDS+=($SRV)
wait_http "$DURABLE"

echo "== ingesting batches until the kill"
mkdir -p "$TMP/acked"
acked=0
for i in $(seq 1 200); do
  body="["
  for j in 0 1 2; do
    u=$(( (i * 37 + j * 911) % 2000 ))
    v=$(( (i * 53 + j * 577 + 1) % 2000 ))
    if [ "$u" -eq "$v" ]; then v=$(( (v + 1) % 2000 )); fi
    [ "$j" -gt 0 ] && body+=","
    body+="{\"op\":\"add\",\"u\":$u,\"v\":$v}"
  done
  body+="]"
  # Only batches the server ACKNOWLEDGED count: a request in flight at
  # the kill may or may not survive, and either outcome is correct.
  if curl -sf -X POST --data "$body" "http://127.0.0.1:$DURABLE/edges/batch" >/dev/null 2>&1; then
    acked=$((acked + 1))
    printf '%s' "$body" > "$TMP/acked/$acked.json"
  else
    break
  fi
  if [ "$i" -eq 60 ]; then
    echo "== waiting for a background checkpoint (after $acked acknowledged batches)"
    wait_checkpoint
  fi
  if [ "$i" -eq 120 ]; then
    echo "== kill -9 mid-stream (after $acked acknowledged batches)"
    kill -9 "$SRV" 2>/dev/null || true
    break
  fi
done
wait "$SRV" 2>/dev/null || true
if [ "$acked" -lt 50 ]; then
  echo "only $acked batches acknowledged before the kill; ingest too slow?" >&2
  exit 1
fi

echo "== restarting from the data dir alone"
"$TMP/bin/probesim-server" -shards 8 -data-dir "$TMP/data" \
  -addr "127.0.0.1:$DURABLE" -epsa 0.3 &
PIDS+=($!)
wait_http "$DURABLE"
recovered=$(stat_field "$DURABLE" walCheckpointBatch)
if [ "${recovered:-0}" -le 0 ]; then
  echo "restart recovered no checkpoint (walCheckpointBatch=${recovered:-?})" >&2
  exit 1
fi
if [ -n "$(find "$TMP/data" -maxdepth 1 -name '*.dck')" ]; then
  echo "delta checkpoint file in the data dir" >&2
  ls -la "$TMP/data" >&2
  exit 1
fi
echo "recovered through checkpoint batch $recovered"

echo "== booting uninterrupted reference and replaying the acknowledged stream"
"$TMP/bin/probesim-server" -graph "$TMP/g.txt" -shards 8 \
  -addr "127.0.0.1:$REFERENCE" -epsa 0.3 &
PIDS+=($!)
wait_http "$REFERENCE"
for f in $(ls "$TMP/acked" | sort -n); do
  curl -sf -X POST --data @"$TMP/acked/$f" "http://127.0.0.1:$REFERENCE/edges/batch" >/dev/null
done

echo "== comparing edge counts"
d_edges=$(curl -sf "http://127.0.0.1:$DURABLE/stats" | sed 's/.*"edges":\([0-9]*\).*/\1/')
r_edges=$(curl -sf "http://127.0.0.1:$REFERENCE/stats" | sed 's/.*"edges":\([0-9]*\).*/\1/')
if [ "$d_edges" != "$r_edges" ]; then
  echo "edge counts diverge: recovered=$d_edges reference=$r_edges" >&2
  exit 1
fi

echo "== diffing query answers byte for byte"
for u in 0 17 123 999 1777; do
  for route in "single-source?u=$u" "topk?u=$u&k=10"; do
    curl -sf "http://127.0.0.1:$DURABLE/$route"   > "$TMP/d.json"
    curl -sf "http://127.0.0.1:$REFERENCE/$route" > "$TMP/r.json"
    if ! cmp -s "$TMP/d.json" "$TMP/r.json"; then
      echo "answers diverge on /$route" >&2
      diff "$TMP/d.json" "$TMP/r.json" >&2 || true
      exit 1
    fi
  done
done

echo "== checkpoint/log hygiene"
ls -la "$TMP/data" >&2
if ! ls "$TMP/data"/checkpoint-*.ck >/dev/null 2>&1; then
  echo "no checkpoint file in the data dir" >&2
  exit 1
fi

echo "crash-recovery smoke: OK ($acked acknowledged batches, $d_edges edges, answers bit-identical)"
