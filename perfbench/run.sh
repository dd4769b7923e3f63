#!/usr/bin/env bash
# Builds battschedd and the serving benchmark from this checkout, then
# runs one benchmark pass:
#
#   bash perfbench/run.sh --workload sync-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included), and the toolchain never
# reaches for the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/battschedd" ]]; then
	echo "perfbench: $root holds no battschedd source (go.mod, cmd/battschedd)" >&2
	exit 1
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/home/go/telemetry"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
# With telemetry on, the go command forks a detached upload sidecar the
# first time it runs under a fresh config directory; it would outlive
# the benchmark.
echo off > "$out/home/go/telemetry/mode"

# Build output goes to stderr: the result must stay the last stdout line.
(cd "$root" && go build -o "$out/bin/battschedd" ./cmd/battschedd) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/battschedd" -work "$out/work" "$@"
