#!/usr/bin/env bash
# Builds the benchmark from the sources next to this script and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build at
# the root of the checkout: the Go build cache, the binary, and the span
# files of traced runs. Without the emucheck module one directory up
# the build fails, and so does this script.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out/spans" "$@"
