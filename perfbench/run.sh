#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given arguments (see perfbench/README.md). Run from the checkout root:
#
#   bash perfbench/run.sh --workload train-arxiv-sage --seed 1 --seconds 10 --trace 0
#
# Build products, Go caches and temporary files land in .bench_build/ under the
# checkout, so nothing is read from or written to the user's home.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
