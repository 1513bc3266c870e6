#!/usr/bin/env bash
# Builds the benchmark and the panda-serve binary under test from the
# checkout in the current directory, then runs the benchmark. Every build
# output, input file and trace stays under .bench_build in that directory.
#
#   bash pandabench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$out/bin" "$out/tmp"
(cd "$here" && go build -o "$out/bin/" . panda/cmd/panda-serve) >&2
exec "$out/bin/pandabench" -out "$out" "$@"
