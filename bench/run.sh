#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload predict --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, the binary) goes under
# .bench_build/ in the current directory, so a run reads and writes only
# inside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

go -C bench build -o "$build/e2e" .
exec "$build/e2e" "$@"
