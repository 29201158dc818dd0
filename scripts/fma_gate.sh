#!/usr/bin/env bash
# Fails if the arm64 build of the packages whose float64 arithmetic must
# round the same on every architecture fuses a multiply and an add. The
# Go spec lets a compiler fuse x*y + z into one FMA, and the arm64
# backend does; a decoder on arm64 would then rebuild pred + code·step
# with another rounding than the amd64 encoder checked against eb, and
# an aggregator would fold other bits; a seeded model (model, stats)
# would start from other weights, and a bound check (lossy's metrics)
# would measure another error; the simulator's seeded datasets
# (dataset, scidata) and mini networks (nn) would train differently,
# and lossytest's fixtures would hold other values. An explicit float64(x*y) (float32(x*y) for
# float32 operands) blocks the fusion, and on amd64 compiles to the
# same code. The hand-written amd64 kernels (sz2's, the aggregator's,
# stats' range scan) must reproduce those scalar loops bit for bit, so no .s file under
# internal/ may name a fused multiply-add either.
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(./internal/quant ./internal/sz2 ./internal/sz3 ./internal/family ./internal/orchestrator ./internal/fl
  ./internal/model ./internal/stats ./internal/lossy ./internal/dataset ./internal/nn
  ./internal/scidata ./internal/lossy/lossytest)
# The build cache replays the compiler's listing, so a cached build
# checks the same text; an empty listing would pass vacuously.
listing="$(GOARCH=arm64 go build -gcflags=-S "${pkgs[@]}" 2>&1)"
if ! grep -q 'TEXT.*sz2\.fitLine' <<<"$listing"; then
  echo 'fma gate: no arm64 listing of sz2.fitLine: the check read nothing' >&2
  exit 1
fi
if fused="$(grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)[DS]\b' <<<"$listing")"; then
  echo 'fma gate: fused multiply-add in the arm64 build; wrap the product in float64(...) or float32(...):' >&2
  echo "$fused" >&2
  exit 1
fi
shopt -s globstar nullglob
asm=(internal/**/*.s)
if [ "${#asm[@]}" -eq 0 ]; then
  echo 'fma gate: no .s file under internal/: the check read nothing' >&2
  exit 1
fi
if fused="$(grep -nE '\bVF(N?)M(ADD|SUB)' "${asm[@]}")"; then
  echo 'fma gate: fused multiply-add in hand-written assembly; multiply, then add:' >&2
  echo "$fused" >&2
  exit 1
fi
