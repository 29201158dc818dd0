#!/usr/bin/env bash
# Fails if the arm64 build of the packages whose float64 arithmetic must
# round the same on every architecture fuses a multiply and an add. The
# Go spec lets a compiler fuse x*y + z into one FMA, and the arm64
# backend does; a decoder on arm64 would then rebuild pred + code·step
# with another rounding than the amd64 encoder checked against eb, and
# an aggregator would fold other bits. An explicit float64(x*y) blocks
# the fusion, and on amd64 compiles to the same code.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/quant ./internal/sz2 ./internal/sz3 ./internal/family ./internal/orchestrator ./internal/fl)
# The build cache replays the compiler's listing, so a cached build
# checks the same text; an empty listing would pass vacuously.
listing="$(GOARCH=arm64 go build -gcflags=-S "${pkgs[@]}" 2>&1)"
if ! grep -q 'TEXT.*sz2\.fitLine' <<<"$listing"; then
  echo 'fma gate: no arm64 listing of sz2.fitLine: the check read nothing' >&2
  exit 1
fi
if fused="$(grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)[DS]\b' <<<"$listing")"; then
  echo 'fma gate: fused multiply-add in the arm64 build; wrap the product in float64(...):' >&2
  echo "$fused" >&2
  exit 1
fi
