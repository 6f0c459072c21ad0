#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its settings and counters in the user config
# directory; point that inside .bench_build too.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0

# Return freed heap pages with MADV_FREE, not MADV_DONTNEED: the pages stay
# mapped, so the sweeps do not spend a host-dependent share of their time
# faulting the same heap back in.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"

# The benchmark module replaces the ocd module with the checkout itself.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
