#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything it writes (the Go build cache, the binary, the generated graph
# and data directories) stays under .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
# Build from the local tree only: no module downloads, no toolchain switch.
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd bench && go build -o "$out/probesim-bench" .)
exec "$out/probesim-bench" "$@"
