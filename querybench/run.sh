#!/usr/bin/env bash
# Builds the /v1/query benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash querybench/run.sh --workload hit-20k --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file lands in .bench_build/ at
# the root, so the benchmark reads and writes only inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$(dirname "$0")" && go build -o "$out/querybench" .)
exec "$out/querybench" "$@"
