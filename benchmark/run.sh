#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run it from the root of a
# checkout; every argument is passed to the benchmark program:
#
#   bash benchmark/run.sh --workload hit-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# temporaries, binaries, spans, server data directories) stays under
# .bench_build/ in the checkout. Outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go -C benchmark build -buildvcs=false -o "$out/evencycle-bench" .
exec "$out/evencycle-bench" "$@"
