#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g. from
# the repository root:
#
#   bash bench/run.sh --workload sim-mem --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in <root>/.bench_build:
# the Go build cache, the binary, temporary files, and the graph images
# of disk-backed workloads. Without the library next to bench/ the build
# fails, so the script exits non-zero before printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) 1>&2
cd "$root"
exec "$out/perfbench" -workdir "$out/work" "$@"
