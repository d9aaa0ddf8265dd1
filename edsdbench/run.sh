#!/usr/bin/env bash
# Builds the edsd benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash edsdbench/run.sh --workload miss-oneround --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under .bench_build in the
# current directory, so a run writes nothing outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/edsdbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$(dirname "$0")" && go build -o "$out/edsdbench" .)
exec "$out/edsdbench" "$@"
