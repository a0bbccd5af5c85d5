#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
# Everything the Go toolchain writes (build cache, module path, its own
# config and telemetry) stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
