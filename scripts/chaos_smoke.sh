#!/usr/bin/env bash
# chaos_smoke.sh — end-to-end chaos smoke against a real battschedd over
# real HTTP, in two legs:
#
#   1. Degradation: pull the disk tier out from under a running daemon
#      (the -cache-dir directory becomes a plain file, so every disk op
#      fails ENOTDIR — root-proof, unlike chmod). The daemon must stay
#      up, trip its circuit breaker, report /readyz "degraded" while
#      still serving memory hits, then recover to "ok" on its own once
#      the volume comes back and a half-open probe succeeds.
#
#   2. Crash: SIGKILL the daemon in the middle of a resilient battload
#      run and restart it on the same port and cache directory. The
#      run (retrying internal/client calls underneath) must ride through
#      the outage — resubmitting jobs the restarted daemon no longer
#      knows — and must end with zero lost jobs, zero double-terminals
#      and zero byte divergence. The kill also loses whatever results
#      were still queued for the disk, so the restarted daemon
#      recomputes them; byte divergence would show if that changed an
#      answer.
#
# This is the ops-facing twin of the in-process chaos harness
# (battload -self -self-faults ...): same contract, real binary, real
# signals, a real pulled volume.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
cachedir="$workdir/cache"
pid=""
loadpid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  [ -n "$loadpid" ] && kill "$loadpid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/battschedd" ./cmd/battschedd
go build -o "$workdir/battload" ./cmd/battload

# start_daemon <logfile> [addr]: launches with a fast-cycling breaker,
# waits for the listen line and sets $base / $port.
start_daemon() {
  "$workdir/battschedd" -addr "${2:-127.0.0.1:0}" -cache-dir "$cachedir" \
    -disk-breaker-threshold 3 -disk-breaker-window 10s -disk-breaker-probe 200ms \
    -quiet 2>"$1" &
  pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^battschedd: listening on //p' "$1")"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "daemon died at startup:"; cat "$1"; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "daemon never listened:"; cat "$1"; exit 1; }
  base="http://$addr"
  port="${addr##*:}"
}

# readyz_status: prints the aggregate /readyz verdict (ok|degraded|
# draining). The aggregate is the first "status" in the body; the
# anchored match keeps sed off the per-subsystem ones.
readyz_status() {
  curl -sS "$base/readyz" | sed -n 's/^{"status":"\([a-z]*\)".*/\1/p'
}

# await_readyz <want> <n>: polls until /readyz reports <want>, driving a
# fresh (uncached) request each try so the breaker sees disk traffic —
# it only counts errors, probes and closes on operations, never on a
# timer alone.
await_readyz() {
  for i in $(seq 1 "$2"); do
    curl -sS -o /dev/null "$base/v1/schedule" \
      -d "{\"fixture\":\"g3\",\"deadline\":$((100 + i))}" || true
    [ "$(readyz_status)" = "$1" ] && return 0
    sleep 0.1
  done
  echo "readyz never reached $1 (last: $(readyz_status)):"
  curl -sS "$base/readyz"; echo; curl -sS "$base/metrics"; echo
  exit 1
}

echo "== leg 1: pull the disk, degrade, restore, recover"
start_daemon "$workdir/leg1.log"
[ "$(readyz_status)" = "ok" ] || { echo "fresh daemon not ok"; exit 1; }

# Prime one result into the memory tier (and through to disk).
prime='{"fixture":"g3","deadline":230}'
curl -sS -o /dev/null "$base/v1/schedule" -d "$prime"

# Pull the volume: the directory becomes a plain file, so every disk
# operation under it fails. New misses now hit disk errors on both the
# read and the write-through.
mv "$cachedir" "$cachedir.pulled"
touch "$cachedir"

await_readyz degraded 50
kill -0 "$pid" || { echo "daemon died while degraded"; exit 1; }

# Degraded means degraded, not down: the primed request still answers
# from memory.
hit="$(curl -sS -D - -o /dev/null "$base/v1/schedule" -d "$prime" | grep -ci '^x-cache: hit' || true)"
[ "$hit" = "1" ] || { echo "memory hit not served while degraded"; exit 1; }

# Restore the volume; the next half-open probe (every 200ms) should
# succeed and re-close the breaker.
rm "$cachedir"
mv "$cachedir.pulled" "$cachedir"
await_readyz ok 50

# The breaker must have genuinely tripped, not just flickered.
metrics="$(curl -sS "$base/metrics")"
echo "$metrics" | grep -q '"disk_breaker_open":0' && {
  echo "breaker never tripped:"; echo "$metrics"; exit 1
}
echo "$metrics" | grep -q '"disk_breaker_state":"closed"' || {
  echo "breaker not closed after recovery:"; echo "$metrics"; exit 1
}
kill -TERM "$pid"; wait "$pid" || true; pid=""
echo "leg 1 OK: tripped, served memory-only, recovered"

echo "== leg 2: SIGKILL mid-run, restart, resilient client rides through"
rm -rf "$cachedir" && mkdir "$cachedir"
start_daemon "$workdir/leg2a.log"

# An open-loop resilient run long enough (~4s at 150/s) to be killed in
# the middle: -assert turns any lost job, double terminal or byte
# divergence into the exit status. A job finishes in milliseconds, so
# with battload's default 2ms first poll the kill could land while no
# job is tracked and no 404 resubmit is ever needed. The 250ms first
# poll keeps ~37 submitted jobs unobserved at any instant, so the kill
# always strands some that the restarted daemon no longer knows.
"$workdir/battload" -addr "$base" -resilient -n 600 -c 16 -rate 150 \
  -poll-interval 250ms \
  -slo-error-rate 0 -assert -o "$workdir/chaos_load.json" \
  >"$workdir/load.out" 2>&1 &
loadpid=$!

sleep 1.5
kill -9 "$pid"; wait "$pid" 2>/dev/null || true; pid=""
start_daemon "$workdir/leg2b.log" "127.0.0.1:$port"
grep -q 'warm start from' "$workdir/leg2b.log" || { echo "no warm start after crash"; exit 1; }

if ! wait "$loadpid"; then
  echo "resilient run failed across the crash:"; cat "$workdir/load.out"
  exit 1
fi
loadpid=""

# The client must have actually exercised resilience, not merely
# survived an uneventful run: the restarted daemon answered 404 for
# jobs the killed one had accepted, and each was resubmitted.
python3 - "$workdir/chaos_load.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))["results"][0]
assert rep["lost"] == 0, rep
assert rep["double_terminal"] == 0, rep
assert rep["byte_mismatch"] == 0, rep
assert rep["done"] == rep["jobs"], rep
retries = (rep.get("client") or {}).get("retries", 0)
resubmits = rep.get("resubmits", 0)
assert resubmits > 0, f"no 404 resubmits recorded across the kill: {rep}"
print(f"leg 2 OK: {rep['done']} done, 0 lost, {retries} client retries, {resubmits} resubmits across the kill")
EOF

kill -TERM "$pid"; wait "$pid" || true; pid=""
echo "chaos smoke OK"
