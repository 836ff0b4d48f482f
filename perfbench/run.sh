#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload attack-oneshot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh steady --workload census-corpus --runs 10
#
# Everything the build and the run write (Go build cache, binaries,
# temporary WAL directories) stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0 GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/bin/" . ./cmd/oneshot) >&2
# madvdontneed=0: the benchmark process's Go runtime returns freed heap
# pages with MADV_FREE, so they stay mapped and the next set-up reuses
# them without a page fault. With the default MADV_DONTNEED every timed
# set-up faults in about 9500 fresh pages, whose cost on a VM swings
# with the host's memory load. The operation processes of
# attack-oneshot run without it (see oneshot.go).
GODEBUG=madvdontneed=0 exec "$build/bin/perfbench" "$@"
