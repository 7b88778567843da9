#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload vet-ring --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache stays inside .bench_build/.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
if ! (cd perfbench && go build -o "$out/bin/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 3
fi
exec "$out/bin/perfbench" "$@"
