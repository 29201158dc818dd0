#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary and Go build cache
# under .bench_build/, nothing outside the tree) and runs it with the
# caller's arguments. BENCHMARK.json's command is `bash benchmark/run.sh`.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local \
	go build -C "$here" -o "$out/fedszbench" .
exec "$out/fedszbench" "$@"
