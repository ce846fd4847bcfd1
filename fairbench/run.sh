#!/usr/bin/env bash
# Builds fairserved and the fairbench program from the sources of the
# checkout it is run from, then runs fairbench with the arguments given:
#
#   bash fairbench/run.sh --workload serve-labelled-csv --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# (Go build cache, binaries, server stores and spools) lands under
# .bench_build/ there; nothing is written outside the checkout and nothing
# is fetched. Without the repository's sources next to it the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR"
# With telemetry in its default "local" mode, the first go command of the
# day in a fresh config directory starts a detached upload sidecar that
# outlives the build. "off" (what `go telemetry off` writes) starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$out/fairserved" ./cmd/fairserved)
(cd "$root/fairbench" && go build -o "$out/fairbench" .)

exec "$out/fairbench" -server "$out/fairserved" -work "$out" "$@"
