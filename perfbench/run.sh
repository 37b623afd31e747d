#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload verify-full --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced-run span files go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/tmp" "$build/traces"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -trace-dir "$build/traces" "$@"
