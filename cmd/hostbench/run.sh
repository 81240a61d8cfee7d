#!/usr/bin/env bash
# Builds the host-performance benchmark from the repository source and
# runs it with the given arguments. Run from the repository root:
#
#   bash cmd/hostbench/run.sh --workload paper --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the working directory. The build fails (and nothing is printed on
# standard output) when the repository source is not there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/cmd/hostbench" && go build -o "$build/hostbench" .) >&2
exec "$build/hostbench" --workdir "$build/hostbench-work" "$@"
