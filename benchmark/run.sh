#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go build cache included, so nothing is read or written elsewhere) and runs
# it with the given arguments from the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
(cd benchmark && go build -o ../.bench_build/benchmark .)
exec .bench_build/benchmark "$@"
