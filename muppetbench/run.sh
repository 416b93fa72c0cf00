#!/usr/bin/env bash
# Builds the muppet benchmark from the sources of the checkout it is run
# from and runs it. Run from the repository root:
#
#   bash muppetbench/run.sh --workload cold --seed 1 --seconds 15 --trace 0
#   bash muppetbench/run.sh steady --workload serve --runs 5
#
# Build outputs, the Go build cache and the run's scratch files stay under
# .bench_build/ in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd muppetbench && go build -o "$out/muppetbench" .)
exec "$out/muppetbench" "$@"
