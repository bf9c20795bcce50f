#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it:
#
#   bash campaignbench/run.sh --workload fuzz_n5 --seed 1 --seconds 35 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes —
# the Go build cache, the binary, scratch artifacts and CPU profiles —
# stays under the build directory: $CARGO_TARGET_DIR when set,
# .bench_build otherwise. Build output goes to stderr, so the last line
# of stdout is the result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/home/go"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export PPROF_TMPDIR="$build/tmp"
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$root/campaignbench" && go build -o "$build/campaignbench" .) >&2
exec "$build/campaignbench" -work "$build/work" "$@"
