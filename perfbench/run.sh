#!/usr/bin/env bash
# Builds and runs the serving benchmark from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# working directory; the toolchain is never fetched.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
