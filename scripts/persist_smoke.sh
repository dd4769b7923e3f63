#!/usr/bin/env bash
# persist_smoke.sh — end-to-end smoke of battschedd's disk-backed cache
# against a real daemon over real HTTP: populate a -cache-dir, restart
# the process on the same directory, and require every repeated request
# to answer X-Cache: hit with disk_hits > 0 and zero computations
# (misses stays 0) in the second life. The first life ends with a SIGTERM
# sent the moment a burst of misses is answered, while their entries
# are still in the write-behind queue: the graceful drain must persist
# every one. This is the ops-facing twin of TestRestartServesFromDisk —
# same property, real binary, real signals.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
cachedir="$workdir/cache"
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/battschedd" ./cmd/battschedd

# start_daemon <logfile>: launches on an OS-assigned port, waits for the
# listen line and sets $base. The warm-start log line is the startup
# contract for -cache-dir, so require it too.
start_daemon() {
  "$workdir/battschedd" -addr 127.0.0.1:0 -cache-dir "$cachedir" -quiet 2>"$1" &
  pid=$!
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^battschedd: listening on //p' "$1")"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "daemon died at startup:"; cat "$1"; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "daemon never listened:"; cat "$1"; exit 1; }
  grep -q 'warm start from' "$1" || { echo "missing warm-start log line:"; cat "$1"; exit 1; }
  base="http://$addr"
}

stop_daemon() {
  kill -TERM "$pid"
  wait "$pid" || true
  pid=""
}

requests=(
  '{"fixture":"g3","deadline":230,"strategy":"iterative"}'
  '{"fixture":"g3","deadline":230,"strategy":"withidle"}'
  '{"fixture":"g2","deadline":55}'
)

# burst is one /v1/batch of distinct g3 jobs, so each line is a miss in
# the first life and a disk hit in the second.
burst_jobs=128
burst="$workdir/burst.ndjson"
for i in $(seq 0 $((burst_jobs - 1))); do
  echo "{\"fixture\":\"g3\",\"deadline\":$((100 + i)),\"strategy\":\"iterative\"}"
done >"$burst"

# expect_burst <hits>: the burst must report X-Cache-Hits: <hits>/<jobs>.
expect_burst() {
  headers="$(curl -sS -D - -o /dev/null "$base/v1/batch" --data-binary @"$burst")"
  echo "$headers" | grep -qi "^x-cache-hits: $1/$burst_jobs" || {
    echo "burst: expected X-Cache-Hits: $1/$burst_jobs, got:"; echo "$headers"; exit 1
  }
}

# expect_cache <hit|miss>: every request must carry that X-Cache value.
expect_cache() {
  for body in "${requests[@]}"; do
    headers="$(curl -sS -D - -o /dev/null "$base/v1/schedule" -d "$body")"
    echo "$headers" | grep -qi "^x-cache: $1" || {
      echo "request $body: expected X-Cache: $1, got:"; echo "$headers"; exit 1
    }
  done
}

echo "== first life: populate $cachedir, SIGTERM right after a burst of misses"
start_daemon "$workdir/first.log"
expect_cache miss
expect_burst 0
stop_daemon

echo "== second life: same directory, same requests, zero computations"
start_daemon "$workdir/second.log"
grep -q "warm start from .*: $((3 + burst_jobs)) entries" "$workdir/second.log" || {
  echo "second life did not find all $((3 + burst_jobs)) entries:"; cat "$workdir/second.log"; exit 1
}
expect_cache hit
expect_burst "$burst_jobs"
metrics="$(curl -sS "$base/metrics")"
for want in "\"disk_hits\":$((3 + burst_jobs))," '"misses":0'; do
  echo "$metrics" | grep -qF "$want" || {
    echo "metrics missing $want:"; echo "$metrics"; exit 1
  }
done
stop_daemon

echo "persist smoke OK: $((3 + burst_jobs)) jobs re-served from disk, 0 recomputed"
