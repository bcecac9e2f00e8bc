#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload synth --seed 1 --seconds 30 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# temporary files, the go command's own config and telemetry files, and
# traced-run spans all stay under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
