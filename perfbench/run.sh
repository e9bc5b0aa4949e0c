#!/usr/bin/env bash
# Builds the corpus benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build artifact, cache and scratch
# file stays under .bench_build/ (or $CARGO_TARGET_DIR when set), so the
# run reads and writes nothing outside the checkout. A failed build exits
# non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
# The module needs nothing beyond the repository and the standard library;
# never reach for the network.
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --scratch "$out/run" "$@"
