#!/usr/bin/env bash
# Builds the router benchmark from the checkout it sits in and runs it;
# every argument passes through, e.g.
#   bash perfbench/run.sh --workload cachehit --seed 1 --seconds 20 --trace 0
# The module builds offline against the router's source one directory
# up. Everything the go command writes — build cache, temporary files,
# its config and telemetry directory, the binary — stays inside the
# checkout, under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
