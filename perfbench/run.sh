#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload crawl --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh aa --runs 10
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch files and span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# The go command also keeps counters under the user's config directory and
# modules under GOPATH; both point into the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
