#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mobility-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench.bin" .
exec "$out/perfbench.bin" "$@"
