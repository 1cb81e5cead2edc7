#!/usr/bin/env bash
# Builds lodimbench from the checkout's source and runs it, passing every
# argument through:
#
#   bash bench/run.sh -workload cold-map -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache, temp files, job spools). The build
# is offline: the benchmark imports only the standard library and the
# enclosing lodim module, so it fails fast when that source is missing.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOTELEMETRY=off
export TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/lodimbench" ./lodimbench)
cd "$root"
exec "$build/lodimbench" -manifest corpus/manifest.jsonl -workdir .bench_build "$@"
