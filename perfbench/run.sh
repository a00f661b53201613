#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run
# from the checkout root; every argument passes through to the binary:
#
#   bash perfbench/run.sh --workload daemon-steady --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
export PERFBENCH_DIR=$out

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
