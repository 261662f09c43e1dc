#!/usr/bin/env bash
# run.sh builds the benchmark driver and runs it from the repository root.
#
#   bash perfbench/run.sh --workload bandwidth --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh steady --workload served --runs 5 --out served.jsonl
#   bash perfbench/run.sh compare base.jsonl change.jsonl
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the Go build cache, temporary files, binaries and work dirs.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
