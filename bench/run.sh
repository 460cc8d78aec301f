#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload screening --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and everything the benchmark writes stay
# under .bench_build/ in the current directory, and the build needs no
# network: the benchmark module depends only on this repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd bench && go build -o "$out/uchecker-bench" .) >&2
exec "$out/uchecker-bench" "$@"
