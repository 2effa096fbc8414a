#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark module into
# .bench_build and becomes it, so a signal sent to this process reaches
# the program that owns the spawned servers (go run would swallow it).
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p ../.bench_build
go build -o ../.bench_build/benchmark .
exec ../.bench_build/benchmark "$@"
