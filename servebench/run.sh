#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run from the repository root; arguments pass through to the binary:
#
#   bash servebench/run.sh --workload write-1k --seed 1 --seconds 20 --trace 0
#
# Build cache, temporary build files, binary and the run's data directory
# all live under .bench_build/ in the repository root, on the same disk as
# the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$bench_dir" && go build -o "$out/servebench" .)
exec "$out/servebench" --work-dir "$out/data" "$@"
