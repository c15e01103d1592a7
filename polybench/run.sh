#!/usr/bin/env bash
# Builds the polygen end-to-end benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash polybench/run.sh --workload fig1-tcp --seed 1 --seconds 20 --trace 0
#
# Build outputs, temporary stores and span dumps go to $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout; the Go build cache and
# configuration are kept there too, so nothing is written outside it.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C polybench build -o "$out/polybench" . >&2
exec "$out/polybench" --out "$out" "$@"
