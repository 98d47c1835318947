#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Run from anywhere:
#
#   bash simbench/run.sh --workload read-nogc --seed 1 --seconds 20 --trace 0
#
# Go's build cache, module cache and temporary files all go under
# .bench_build/ at the checkout root, so nothing is written outside it and
# nothing is fetched: the benchmark uses only the standard library and the
# repository's own packages.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$here/../.bench_build/simbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/simbench" .)
exec "$out/simbench" "$@"
